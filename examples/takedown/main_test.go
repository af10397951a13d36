package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputMatchesGolden pins the example's whole stdout: the DDSR
// overlay and its no-repair baseline (NewRegular, NewNormalRegular),
// the component counts and the DiameterApprox column. A change to graph
// generation, repair or measurement that moves any number fails here.
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
