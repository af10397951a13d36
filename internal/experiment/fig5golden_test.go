package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// fig5GoldenPath pins every Fig 5 number at a mid-size quick point.
const fig5GoldenPath = "testdata/fig5-golden.json"

// renderFig5Golden runs the registered fig5 at Params{Quick, N: 2000}
// for seeds 1 and 101 and collects each ResultsJSON document under its
// seed.
func renderFig5Golden(t *testing.T) []byte {
	t.Helper()
	def, ok := Lookup("fig5")
	if !ok {
		t.Fatal("fig5 is not registered")
	}
	docs := map[string]json.RawMessage{}
	for _, seed := range []uint64{1, 101} {
		results, err := def.Run(Params{Quick: true, N: 2000, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		doc, err := ResultsJSON(results)
		if err != nil {
			t.Fatal(err)
		}
		docs[fmt.Sprintf("seed=%d", seed)] = doc
	}
	out, err := json.MarshalIndent(docs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestFig5Golden holds Fig 5's full output to the committed document.
// It is not skipped under -short, so the race-detector run checks the
// same numbers. To re-pin after a deliberate change, delete the golden
// file and run the test twice.
func TestFig5Golden(t *testing.T) {
	got := renderFig5Golden(t)
	want, err := os.ReadFile(fig5GoldenPath)
	if os.IsNotExist(err) {
		if err := os.WriteFile(fig5GoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; re-run to check against it", fig5GoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("fig5 output differs from %s:\n%s", fig5GoldenPath, got)
	}
}
