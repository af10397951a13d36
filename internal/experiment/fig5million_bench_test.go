package experiment

import (
	"runtime"
	"testing"
)

// BenchmarkFig5MillionNode is the tentpole exit criterion made routine:
// one n=10^6 Fig 5 grid point — build a million-node 10-regular DDSR
// overlay and its no-repair control, churn both down to a residue
// through the full deletion sweep, measuring components/centrality/
// diameter along the way. Beyond wall clock it reports the post-run
// heap high-water mark (heap-MiB), the number that shows the memory
// profile staying flat at million-bot scale. Run with -benchtime=1x:
// one iteration IS the experiment (the Makefile bench target does
// this; the point costs tens of seconds, not nanoseconds).
func BenchmarkFig5MillionNode(b *testing.B) {
	const n = 1_000_000
	cfg := Fig5Config{
		N: n,
		K: 10,
		// 8 measurement stops: each snapshot is an O(n·K) CSR build plus
		// BFS sweeps, so sampling density is where the wall-clock budget
		// goes. The paper's curves need ~50 points; the routine grid
		// point needs enough to see the partition knee.
		MeasureEvery:   n / 8,
		DiameterSweeps: 2,
		Seed:           2,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		comps, _, _, err := RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(comps.Series) != 2 {
			b.Fatalf("expected 2 series, got %d", len(comps.Series))
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heap-MiB")
}
