package lint

import (
	"go/ast"
)

// simFacingPackages are the package names (final import-path segment)
// whose code runs under — or feeds — the simulated clock. Inside them,
// wall-clock reads are a determinism leak: a result that depends on
// time.Now differs run to run, and a time.Sleep couples simulated
// behaviour to host scheduling. Simulated time comes from the scheduler
// (sim.Scheduler); real-time concerns (retry backoff in the runner,
// progress rate reporting, serve-mode rate limiting) carry an explicit
// //onionlint:allow detclock directive with the reason.
var simFacingPackages = map[string]bool{
	"core":       true,
	"sim":        true,
	"tor":        true,
	"churn":      true,
	"soap":       true,
	"ddsr":       true,
	"pow":        true,
	"superonion": true,
	"scenario":   true,
	"graph":      true,
	"serve":      true,
	"experiment": true,
}

// bannedClock is the set of wall-clock entry points in package time.
// Durations and formatting are fine; reading or waiting on the host
// clock is not.
var bannedClock = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// DetClock forbids wall-clock access in simulation-facing packages.
var DetClock = &Analyzer{
	Name: "detclock",
	Doc: "forbid time.Now/Since/Sleep/After/… in simulation-facing packages; " +
		"simulated time comes from the scheduler, and wall-clock reads make " +
		"output differ run to run",
	Applies: func(importPath string) bool {
		return simFacingPackages[lastSegment(importPath)]
	},
	Run: runDetClock,
}

func runDetClock(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			e, isExpr := n.(ast.Expr)
			if !isExpr {
				return true
			}
			if path, name, ok := pkgLevelRef(pass.TypesInfo, e); ok && path == "time" && bannedClock[name] {
				pass.Reportf(e.Pos(), "wall-clock time.%s in simulation-facing package %s; use the scheduler's simulated clock", name, lastSegment(pass.ImportPath))
				return false
			}
			return true
		})
	}
	return nil
}
