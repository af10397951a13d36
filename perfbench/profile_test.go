package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"onionbots/internal/graph"
	"onionbots/internal/sim"
)

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pb) uint(num int, x uint64) { p.varint(uint64(num) << 3); p.varint(x) }

func (p *pb) bytes(num int, data []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(data)))
	p.b = append(p.b, data...)
}

func (p *pb) packed(num int, xs ...uint64) {
	var inner pb
	for _, x := range xs {
		inner.varint(x)
	}
	p.bytes(num, inner.b)
}

// syntheticProfile encodes a CPU profile with one function per frame,
// one location per stack frame, and one sample per stack, each worth
// its index+1 milliseconds. A fixed64 field and a string-table entry
// it never references check that unknown content is skipped.
func syntheticProfile(t *testing.T, stacks [][]frame) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	intern := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p pb
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pb
		m.uint(1, intern(vt[0]))
		m.uint(2, intern(vt[1]))
		p.bytes(profSampleType, m.b)
	}
	id := uint64(0)
	for i, st := range stacks {
		var locs []uint64
		for _, f := range st {
			id++
			var fn pb
			fn.uint(functionID, id)
			fn.uint(functionName, intern(f.function))
			fn.uint(functionFilename, intern(f.file))
			p.bytes(profFunction, fn.b)
			var line pb
			line.uint(lineFunctionID, id)
			line.uint(2, 42)
			var loc pb
			loc.uint(locationID, id)
			loc.bytes(locationLine, line.b)
			p.bytes(profLocation, loc.b)
			locs = append(locs, id)
		}
		var s pb
		if len(locs) == 1 {
			s.uint(sampleLocationID, locs[0]) // unpacked form
		} else {
			s.packed(sampleLocationID, locs...)
		}
		s.packed(sampleValue, 1, uint64(i+1)*uint64(time.Millisecond))
		p.bytes(profSample, s.b)
	}
	p.varint(9<<3 | 1) // fixed64 field, skipped
	p.b = append(p.b, make([]byte, 8)...)
	for _, s := range strs {
		p.bytes(profStringTable, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLayerCPUBucketsSyntheticProfile(t *testing.T) {
	tor := func(file string) frame {
		return frame{"onionbots/internal/tor.(*Proxy).Dial", "/src/internal/tor/" + file}
	}
	stacks := [][]frame{
		{{"runtime.memmove", "memmove.s"}, tor("cell.go"), {"onionbots/internal/core.(*Bot).Rally", "bot.go"}},
		{tor("store.go")},
		{tor("proxy.go")},
		{{"runtime.scanobject", "mgcmark.go"}, {"runtime.gcBgMarkWorker", "mgc.go"}},
		{{"runtime.gcAssistAlloc", "mgcmark.go"}, {"runtime.mallocgc", "malloc.go"}, {"onionbots/internal/graph.(*Graph).AddEdge", "graph.go"}},
		{{"onionbots/internal/botcrypto/legacy.RC4", "ciphers.go"}},
		{{"onionbots/internal/sim.Sample[go.shape.*onionbots/internal/core.Bot]", "rng.go"}},
		{{"onionbots/internal/jsonx.Describe", "jsonx.go"}},
		{{"main.main", "main.go"}},
	}
	want := map[string]float64{
		"tor.cells": 1, "tor.dir": 2, "tor.circuit": 3, "gc": 4 + 5,
		"botcrypto.legacy": 6, "sim": 7, "other": 8 + 9,
	}
	got, total, err := layerCPU(syntheticProfile(t, stacks))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-0.045) > 1e-12 {
		t.Errorf("total = %v s, want 0.045", total)
	}
	for l, ms := range want {
		if math.Abs(got[l]-ms/1000) > 1e-12 {
			t.Errorf("%s = %v s, want %v ms", l, got[l], ms)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want exactly %v", got, want)
	}
}

func TestLayerCPURejectsMalformedProfile(t *testing.T) {
	if _, _, err := layerCPU([]byte("not gzip")); err == nil {
		t.Error("accepted a non-gzip profile")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{profSample<<3 | 2, 0x7f}) // length past the end
	zw.Close()
	if _, _, err := layerCPU(buf.Bytes()); err == nil {
		t.Error("accepted a truncated field")
	}
}

// TestLayerCPUInProcessProfile decodes a profile the runtime itself
// wrote while graph code ran: every sample must land in a known layer
// and the layers must sum to the profile total.
func TestLayerCPUInProcessProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler busy: %v", err)
	}
	rng := sim.NewSubstream(1, "profile-test")
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		g, err := graph.RandomRegular(2000, 10, rng)
		if err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
		g.Snapshot().Components()
	}
	pprof.StopCPUProfile()

	got, total, err := layerCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatal("profile holds no CPU time")
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	sum := 0.0
	for l, v := range got {
		if !known[l] {
			t.Errorf("unknown layer %q", l)
		}
		sum += v
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("layers sum to %v s, profile total %v s", sum, total)
	}
	if got["graph"] == 0 {
		t.Errorf("no samples attributed to graph: %v", got)
	}
}
