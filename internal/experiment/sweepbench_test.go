package experiment_test

import "testing"

// BenchmarkSweepTasks times the task expansion of the benchmark's two
// overlay-takedown sweeps, the whole of that workload's setup_s.
func BenchmarkSweepTasks(b *testing.B) {
	grid, point := overlaySweeps(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := grid.Tasks(); err != nil {
			b.Fatal(err)
		}
		if _, err := point.Tasks(); err != nil {
			b.Fatal(err)
		}
	}
}
