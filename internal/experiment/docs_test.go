package experiment

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// readRepoDoc loads a file relative to the repository root.
func readRepoDoc(t *testing.T, parts ...string) string {
	t.Helper()
	path := filepath.Join(append([]string{"..", ".."}, parts...)...)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing doc: %v", err)
	}
	return string(data)
}

func TestExperimentsHandbookCoversRegistry(t *testing.T) {
	// The handbook promises to catalogue every registered experiment;
	// hold it to that, so adding an experiment without documenting it
	// fails CI.
	handbook := readRepoDoc(t, "docs", "EXPERIMENTS.md")
	for _, id := range IDs() {
		if !strings.Contains(handbook, "`"+id+"`") {
			t.Errorf("docs/EXPERIMENTS.md does not catalogue experiment %q", id)
		}
	}
}

func TestHandbookIsLinkedFromReadmeAndArchitecture(t *testing.T) {
	for _, doc := range [][]string{{"README.md"}, {"docs", "ARCHITECTURE.md"}} {
		content := readRepoDoc(t, doc...)
		if !strings.Contains(content, "EXPERIMENTS.md") {
			t.Errorf("%s does not link docs/EXPERIMENTS.md", filepath.Join(doc...))
		}
	}
}

func TestReadmeReproductionTableCoversRegistry(t *testing.T) {
	readme := readRepoDoc(t, "README.md")
	for _, id := range IDs() {
		if !strings.Contains(readme, "`"+id+"`") {
			t.Errorf("README reproduction table misses experiment %q", id)
		}
	}
}

// TestHandbookParamsHonoredMatchesReads holds each catalogue entry's
// "Params honored" line to the axes its Definition declares: the axis
// names it quotes must be exactly Reads, so the handbook cannot
// promise an axis the sweep parser would reject, or hide one it
// accepts.
func TestHandbookParamsHonoredMatchesReads(t *testing.T) {
	handbook := readRepoDoc(t, "docs", "EXPERIMENTS.md")
	quoted := regexp.MustCompile("`([^`]+)`")
	for _, id := range IDs() {
		def, _ := Lookup(id)
		_, section, ok := strings.Cut(handbook, "### `"+id+"`")
		if !ok {
			t.Errorf("no catalogue section for %q", id)
			continue
		}
		section, _, _ = strings.Cut(section, "\n#")
		_, line, ok := strings.Cut(section, "**Params honored:**")
		if !ok {
			t.Errorf("%s: no Params honored line", id)
			continue
		}
		line, _, _ = strings.Cut(line, "\n- **")
		var documented Axis
		for _, m := range quoted.FindAllStringSubmatch(line, -1) {
			if a := axisNamed(m[1]); a != nil && a.id&replicaAxes == 0 {
				documented |= a.id
			}
		}
		if documented != def.Reads {
			t.Errorf("%s: Params honored names axes %s, Reads declares %s", id, axisNames(documented), axisNames(def.Reads))
		}
	}
}

func axisNames(set Axis) []string {
	var out []string
	for _, a := range axes {
		if set&a.id != 0 {
			out = append(out, a.name)
		}
	}
	return out
}
