package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputMatchesGolden pins the example's whole stdout: the
// SuperOnion fleet's size and, per quarter hour of the SOAP campaign,
// contained hosts, soaped-node detections from the hosts' Every probe
// timers, replacements and clones.
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
