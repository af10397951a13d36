package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputMatchesGolden pins the example's whole stdout: the rental
// token's whitelist and expiry, and which rented, off-whitelist,
// expired and master commands the bots execute. Its 25-hour wait runs
// the hidden services' batched descriptor republish.
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
