package core

import (
	"syscall"
	"testing"
	"time"
)

// benchSettle covers one join's wake: the rally report reaching the
// C&C (2 joined 3-hop circuits at the default 50ms hop latency) and the
// registration work it triggers there.
const benchSettle = 400 * time.Millisecond

// newInfectBenchNet builds the shared benchmark substrate: a settled
// 24-bot population on 40 relays. The maintenance timers are slowed so
// the measured window contains the join's own work, not the standing
// population's pings; the hotlist is off for the same reason — peer
// acquisition costs the two modes identical time and belongs to the
// bootstrap stage, while this pair isolates the infection event (birth,
// rally, registration) whose keygen the pool amortizes.
func newInfectBenchNet(b *testing.B, seed uint64, poolBatch int) *BotNet {
	b.Helper()
	bn, err := NewBotNet(seed, 40, BotConfig{
		DMin: 2, DMax: 6,
		PingInterval: time.Hour, NoNInterval: 4 * time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	bn.SetIdentityPool(poolBatch)
	if err := bn.Grow(24, nil); err != nil {
		b.Fatal(err)
	}
	bn.Run(5 * time.Minute)
	return bn
}

// infectOnce performs one complete churn join: the infection itself
// plus the settle window in which the report reaches the C&C and is
// registered.
func infectOnce(b *testing.B, bn *BotNet) {
	b.Helper()
	if _, err := bn.InfectFrom(OutOfBand{}, nil); err != nil {
		b.Fatal(err)
	}
	bn.Run(benchSettle)
}

// BenchmarkInfectFromUnpooled is the A side: every join pays Ed25519
// identity keygen, the intro-binding signature and its verification,
// and the full X25519 rally exchange (seal and master-side open)
// inline.
func BenchmarkInfectFromUnpooled(b *testing.B) {
	bn := newInfectBenchNet(b, 21, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		infectOnce(b, bn)
	}
}

// BenchmarkInfectFromPooled is the B side: key material comes from a
// pool warmed ahead of the measured joins, so each join pays only the
// handshake — hosting circuits, one descriptor signature, the C&C
// dial. Warmup cost is deliberately outside the timed region: that the
// keygen can be moved out of the join event is the point of the pool
// (it runs in idle stretches of a campaign), and this benchmark
// measures the join-time cost a churn event actually pays.
func BenchmarkInfectFromPooled(b *testing.B) {
	bn := newInfectBenchNet(b, 21, 256)
	bn.WarmIdentities(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		infectOnce(b, bn)
	}
}

// TestPooledInfectionSpeedup is the interleaved A/B measurement: twin
// botnets, alternating batches of joins, pooled vs unpooled, on one
// clock-source machine — the same protocol PR 1 and PR 3 used for
// their headline numbers. It asserts a conservative floor and logs the
// measured ratio (CHANGES.md records the full number).
func TestPooledInfectionSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement; skipped in -short")
	}
	const batchJoins, batches = 25, 4

	benchCfg := BotConfig{
		DMin: 2, DMax: 6,
		PingInterval: time.Hour, NoNInterval: 4 * time.Hour,
	}
	pooled, err := NewBotNet(21, 40, benchCfg)
	if err != nil {
		t.Fatal(err)
	}
	unpooled, err := NewBotNet(21, 40, benchCfg)
	if err != nil {
		t.Fatal(err)
	}
	unpooled.SetIdentityPool(0)
	for _, bn := range []*BotNet{pooled, unpooled} {
		if err := bn.Grow(24, nil); err != nil {
			t.Fatal(err)
		}
		bn.Run(5 * time.Minute)
	}
	pooled.WarmIdentities(batchJoins * batches)

	join := func(bn *BotNet) {
		if _, err := bn.InfectFrom(OutOfBand{}, nil); err != nil {
			t.Fatal(err)
		}
		bn.Run(benchSettle)
	}
	// Each half is timed in process CPU time, not wall time, so tests of
	// other packages running beside this one cannot stretch either half.
	var tPooled, tUnpooled time.Duration
	for batch := 0; batch < batches; batch++ {
		start := processCPU(t)
		for i := 0; i < batchJoins; i++ {
			join(pooled)
		}
		tPooled += processCPU(t) - start
		start = processCPU(t)
		for i := 0; i < batchJoins; i++ {
			join(unpooled)
		}
		tUnpooled += processCPU(t) - start
	}
	ratio := float64(tUnpooled) / float64(tPooled)
	t.Logf("interleaved A/B over %d joins each: unpooled %v, pooled %v CPU, speedup %.2fx",
		batchJoins*batches, tUnpooled, tPooled, ratio)
	// In-tree the ratio is ~3.3x, because this PR's shared join-path
	// optimizations (sign-time verify memos, replica-unified descriptor
	// signing, O(count) relay picks, pipelined first-cell CTR) speed the
	// unpooled baseline up too. Against the pre-PR tree — the A/B
	// CHANGES.md reports, measured by interleaving this benchmark with
	// the identical one run in a worktree of the previous commit — the
	// pooled join is >= 5x faster. 2.5x is the in-tree regression floor,
	// chosen to stay robust on a noisy CI host.
	if ratio < 2.5 {
		t.Fatalf("pooled infection only %.2fx faster than unpooled, want >= 2.5x", ratio)
	}
	if st := pooled.IdentityPoolStats(); st.Served < batchJoins*batches {
		t.Fatalf("pool served %d joins, want >= %d", st.Served, batchJoins*batches)
	}
}

// processCPU is the user+system CPU time this process has used so far.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
