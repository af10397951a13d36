// Command perfbench is the repository's end-to-end benchmark. It drives
// one named workload through the public APIs of the internal packages,
// checks every iteration's output against the first one's digest, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of standard output:
//
//	go run ./perfbench -workload repro-quick -seed 1 -seconds 20 -trace 0
//
// See perfbench/README.md for the workloads, the metrics and the
// predictions each per-layer metric is meant to check.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"onionbots/internal/sim"
)

const (
	// defaultSeed is the workload seed claims are developed on, and
	// heldOutSeed the one a claimed gain must also hold on.
	defaultSeed = 1
	heldOutSeed = 101

	// minSetupSample is the shortest set-up measurement taken at face
	// value; shorter set-ups are repeated and averaged.
	minSetupSample = 20 * time.Millisecond

	mib = 1 << 20
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of one run, printed on the line before the
// result so that a later A/B can see which outputs and machine a
// number came from.
type record struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	HeldOut    bool              `json:"held_out_seed"`
	Trace      bool              `json:"trace"`
	InputSeeds []uint64          `json:"input_seeds"`
	Digests    []string          `json:"digests"`
	Iterations int               `json:"iterations"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FailFrac   float64           `json:"fail_frac"`
	Errors     []string          `json:"errors,omitempty"`
	Machine    machine           `json:"machine"`
	Summary    map[string]metric `json:"summary"`
	Metrics    map[string]metric `json:"metrics"`
}

type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed for confirming claims: %d)", heldOutSeed))
	seconds := fs.Int("seconds", 10, "how long to keep measuring iterations")
	trace := fs.Int("trace", 0, "1 = add a traced iteration and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	rec, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printSummary(stderr, rec)
	line, err := json.Marshal(map[string]record{"record": rec})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res := result{Correct: rec.Failed == 0 && len(rec.Errors) == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics}
	last, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", line, last)
	if !res.Correct {
		return 1
	}
	return 0
}

// samples holds the untraced iterations' measurements by name, then by
// input seed.
type samples map[string][][]float64

func (s samples) add(name string, k, inputs int, v float64) {
	if s[name] == nil {
		s[name] = make([][]float64, inputs)
	}
	s[name][k] = append(s[name][k], v)
}

// of is the mean over input seeds of each seed's median, so that every
// input seed weighs the same however many iterations it got.
func (s samples) of(name string) float64 {
	sum, n := 0.0, 0
	for _, xs := range s[name] {
		if len(xs) > 0 {
			sum += median(xs)
			n++
		}
	}
	return ratio(sum, float64(n))
}

// measure runs w for at least budget, cycling through the workload's
// input seeds and coming back to the first at least once so that every
// run compares two digests of the same inputs. When traced, one more
// iteration on the first input seed runs under the CPU profiler and
// the span tracer.
func measure(w *workload, seed uint64, budget time.Duration, traced bool, progress io.Writer) (record, error) {
	rec := record{
		Workload: w.name, Seed: seed, HeldOut: seed == heldOutSeed, Trace: traced,
		InputSeeds: inputSeeds(seed, max(w.inputs, 1)),
		Machine:    stampMachine(),
	}
	rec.Digests = make([]string, len(rec.InputSeeds))
	// check folds one iteration's outcome on input k into the record
	// and reports whether its timings count.
	check := func(k int, out outcome, err error) bool {
		i := rec.Iterations
		rec.Iterations++
		rec.Attempted += out.attempted
		rec.Failed += out.failed
		var problem string
		switch {
		case err != nil:
			problem = err.Error()
		case out.failed > 0:
			problem = fmt.Sprintf("%d of %d operations failed", out.failed, out.attempted)
		case rec.Digests[k] == "":
			rec.Digests[k] = out.digest
			return true
		case out.digest != rec.Digests[k]:
			// A diverging digest voids the whole iteration.
			rec.Failed += out.attempted
			problem = fmt.Sprintf("digest %s differs from %s", out.digest, rec.Digests[k])
		default:
			return true
		}
		rec.Errors = append(rec.Errors, fmt.Sprintf("iteration %d (seed %d): %s", i, rec.InputSeeds[k], problem))
		return false
	}

	s := samples{}
	n := len(rec.InputSeeds)
	begin := time.Now()
	for i := 0; i <= n || time.Since(begin) < budget; i++ {
		k := i % n
		it, setup, err := timedSetup(w, rec.InputSeeds[k], nil)
		if err != nil {
			return rec, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		cpu0 := cpuSeconds()
		t0 := time.Now()
		out, err := it(nil)
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - cpu0
		fmt.Fprintf(progress, "perfbench: %s iteration %d (seed %d): setup %.4fs wall %.3fs cpu %.3fs\n", w.name, i, rec.InputSeeds[k], setup.Seconds(), wall, cpu)
		if !check(k, out, err) {
			continue
		}
		s.add("setup_s", k, n, setup.Seconds())
		s.add("wall_s", k, n, wall)
		s.add("cpu_s", k, n, cpu)
		for _, ph := range w.phases {
			s.add(ph.name, k, n, out.phases[ph.name].Seconds())
		}
	}

	summary := map[string]float64{
		"setup_s":      s.of("setup_s"),
		"wall_s":       s.of("wall_s"),
		"cpu_s":        s.of("cpu_s"),
		"peak_rss_mib": peakRSSMiB(),
	}
	defs := append([]metricDef(nil), endToEnd...)
	defs = append(defs, metricDef{"peak_rss_mib", "MiB", "lower"})
	for _, ph := range w.phases {
		summary[ph.metric] = ratio(ph.work, s.of(ph.name))
		defs = append(defs, metricDef{ph.metric, ph.unit, "higher"})
	}
	metrics := summary
	if traced {
		var untraced float64
		if ws := s["wall_s"]; ws != nil {
			untraced = median(ws[0])
		}
		layer, err := tracedIteration(w, rec.InputSeeds[0], untraced, func(out outcome, err error) bool { return check(0, out, err) })
		if err != nil {
			return rec, err
		}
		for k, v := range summary {
			layer[k] = v
		}
		metrics = layer
	}
	rec.FailFrac = ratio(float64(rec.Failed), float64(rec.Attempted))
	summary["fail_frac"] = rec.FailFrac
	rec.Summary = pick(summary, append(defs, metricDef{"fail_frac", "frac", "lower"}))
	if traced {
		rec.Metrics = pick(metrics, perLayer)
	} else {
		rec.Metrics = pick(metrics, endToEnd)
	}
	return rec, nil
}

// inputSeeds expands the workload seed into n input seeds, the first
// being the workload seed itself.
func inputSeeds(seed uint64, n int) []uint64 {
	seeds := []uint64{seed}
	for k := 1; k < n; k++ {
		seeds = append(seeds, sim.SubstreamSeed(seed, fmt.Sprintf("perfbench/input/%d", k)))
	}
	return seeds
}

// tracedIteration runs one iteration with spans on and the CPU profiler
// recording its set-up and measured phase, then the workload's
// benchmark-side replay (outside the profile), and turns all of it into
// per-layer metrics. untracedWall is the untraced iterations' median
// wall time on the same input seed.
func tracedIteration(w *workload, seed uint64, untracedWall float64, check func(outcome, error) bool) (map[string]float64, error) {
	tr := newTracer()
	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	it, _, err := timedSetup(w, seed, tr)
	if err != nil {
		pprof.StopCPUProfile()
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	t0 := time.Now()
	out, err := it(tr)
	wall := time.Since(t0).Seconds()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	check(out, err)
	if w.replay != nil {
		if err := w.replay(seed, tr); err != nil {
			return nil, fmt.Errorf("%s replay: %w", w.name, err)
		}
	}

	cpu, _, err := layerCPU(prof.Bytes())
	if err != nil {
		return nil, err
	}
	m := tr.metrics()
	for _, l := range layers {
		m["cpu_s."+l] = cpu[l]
	}
	m["alloc_mib"] = float64(m1.TotalAlloc-m0.TotalAlloc) / mib
	m["mallocs"] = float64(m1.Mallocs - m0.Mallocs)
	m["gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	m["trace_overhead_frac"] = ratio(wall, untracedWall) - 1
	return m, nil
}

// timedSetup builds one iteration's inputs and reports how long a
// set-up takes. A set-up too short to time on its own is repeated until
// minSetupSample has passed, and the mean is reported.
func timedSetup(w *workload, seed uint64, tr *tracer) (iteration, time.Duration, error) {
	t0 := time.Now()
	for n := 1; ; n++ {
		it, err := w.setup(seed, tr)
		if err != nil {
			return nil, 0, err
		}
		if d := time.Since(t0); d >= minSetupSample {
			return it, d / time.Duration(n), nil
		}
	}
}

func printSummary(w io.Writer, rec record) {
	fmt.Fprintf(w, "perfbench: %s seed=%d iterations=%d attempted=%d failed=%d\n",
		rec.Workload, rec.Seed, rec.Iterations, rec.Attempted, rec.Failed)
	for k, d := range rec.Digests {
		fmt.Fprintf(w, "perfbench: input seed %d digest %s\n", rec.InputSeeds[k], d)
	}
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "perfbench: FAIL %s\n", e)
	}
	sets := []map[string]metric{rec.Summary}
	if rec.Trace {
		sets = append(sets, rec.Metrics)
	}
	for _, set := range sets {
		names := make([]string, 0, len(set))
		for k := range set {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, set[k].Value, set[k].Unit)
		}
	}
}

// median is the midpoint of xs (the mean of the two middle values for
// an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0, so a run with no usable samples
// still prints finite numbers.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB is the process's peak resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func stampMachine() machine {
	m := machine{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && m.Commit != "unknown" {
			m.Commit += "+dirty"
		}
	}
	return m
}
