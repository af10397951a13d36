package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputMatchesGolden pins the example's whole stdout: the victim
// overlay, the SOAP attacker's per-round crawl, clone and containment
// counts, and the broadcast reach before and after the campaign.
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
