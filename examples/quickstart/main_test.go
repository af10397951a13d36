package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputMatchesGolden pins the example's whole stdout: the C&C
// onion, overlay formation through the rally, the flooded broadcast,
// DDSR repair after takedowns driven by the bots' batched ping and
// NoN-gossip ticks, and directed reach over the shared-key schedule.
func TestOutputMatchesGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("stdout differs from testdata/stdout.golden:\n got:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}
