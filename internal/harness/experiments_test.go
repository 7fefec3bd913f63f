package harness_test

import (
	"strconv"
	"strings"
	"testing"

	"nacho/internal/harness"
)

func TestReportRendering(t *testing.T) {
	rep := &harness.Report{
		Title:  "T",
		Note:   "N",
		Header: []string{"a", "longer"},
		Rows:   [][]string{{"x", "y"}, {"wiiiide", "z"}},
	}
	s := rep.String()
	for _, want := range []string{"T\n", "N\n", "a", "longer", "wiiiide", "---"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}

// TestReportRaggedRows is the regression test for the ragged-row panic: the
// width pass used to guard i < len(widths) but the render loop indexed
// widths[i] unguarded, so any row wider than the header panicked String.
func TestReportRaggedRows(t *testing.T) {
	rep := &harness.Report{
		Title:  "ragged",
		Header: []string{"only"},
		Rows:   [][]string{{"a", "beyond", "the-header"}, {}, {"b"}},
	}
	s := rep.String()
	for _, want := range []string{"only", "beyond", "the-header"} {
		if !strings.Contains(s, want) {
			t.Errorf("String dropped cell %q:\n%s", want, s)
		}
	}
	csv := rep.CSV()
	if !strings.Contains(csv, "a,beyond,the-header") {
		t.Errorf("CSV dropped wide row: %q", csv)
	}
	if len(strings.Split(strings.TrimSuffix(csv, "\n"), "\n")) != 4 {
		t.Errorf("CSV row count wrong: %q", csv)
	}
}

func TestFig5ShapeProperties(t *testing.T) {
	// One benchmark keeps the test fast; the shape assertions are the
	// paper's headline claims.
	rep, err := harness.RunNamedExperiment("fig5", []string{"aes"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (256B and 512B)", len(rep.Rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	for _, row := range rep.Rows {
		clank, nacho, oracle := parse(row[2]), parse(row[5]), parse(row[6])
		if nacho < 1 || clank < 1 {
			t.Errorf("%v: normalized times below the volatile baseline", row)
		}
		if nacho >= clank {
			t.Errorf("%v: NACHO (%f) not faster than Clank (%f)", row[1], nacho, clank)
		}
		if oracle > nacho+1e-9 {
			t.Errorf("%v: Oracle (%f) slower than NACHO (%f)", row[1], oracle, nacho)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	rep, err := harness.RunNamedExperiment("fig7", []string{"aes"})
	if err != nil {
		t.Fatal(err)
	}
	nacho, err := strconv.ParseFloat(rep.Rows[0][4], 64)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: TinyAES NVM traffic drops by ~99% vs Clank.
	if nacho > 0.05 {
		t.Errorf("aes NVM ratio %f, expected < 0.05", nacho)
	}
}

func TestTable2OverheadDecreasesWithOnDuration(t *testing.T) {
	rep, err := harness.RunNamedExperiment("table2", []string{"crc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 on-durations", len(rep.Rows))
	}
	parsePct := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	first := parsePct(rep.Rows[0][1])
	last := parsePct(rep.Rows[len(rep.Rows)-1][1])
	if first < last {
		t.Errorf("overhead grew with on-duration: 5ms=%f%%, 100ms=%f%%", first, last)
	}
	if first < 0 {
		t.Errorf("negative overhead %f%%", first)
	}
}

func TestTable3Runs(t *testing.T) {
	rep, err := harness.RunNamedExperiment("table3", []string{"quicksort"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 metrics", len(rep.Rows))
	}
}

func TestFig6AndFig8Run(t *testing.T) {
	if _, err := harness.RunNamedExperiment("fig6", []string{"sha"}); err != nil {
		t.Fatal(err)
	}
	rep, err := harness.RunNamedExperiment("fig8", []string{"sha"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows[0]) != 7 {
		t.Fatalf("fig8 columns = %d, want 7", len(rep.Rows[0]))
	}
}

func TestTable1Static(t *testing.T) {
	rep := harness.Table1()
	if len(rep.Rows) != 9 {
		t.Errorf("feature rows = %d, want 9", len(rep.Rows))
	}
}

func TestUnknownBenchmarkErrors(t *testing.T) {
	if _, err := harness.RunNamedExperiment("fig5", []string{"nope"}); err == nil {
		t.Error("fig5 accepted unknown benchmark")
	}
	if _, err := harness.RunNamedExperiment("table2", []string{"nope"}); err == nil {
		t.Error("table2 accepted unknown benchmark")
	}
}

func TestExtensionExperimentsRun(t *testing.T) {
	rep, err := harness.RunNamedExperiment("ext-adaptive", []string{"quicksort"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 { // 5 thresholds
		t.Errorf("ext-adaptive rows = %d, want 5", len(rep.Rows))
	}
	if _, err := harness.RunNamedExperiment("ext-energy", []string{"aes"}); err != nil {
		t.Fatal(err)
	}
	wt, err := harness.RunNamedExperiment("ext-wt", []string{"aes"})
	if err != nil {
		t.Fatal(err)
	}
	if len(wt.Rows) != 2 {
		t.Errorf("ext-wt rows = %d, want 2", len(wt.Rows))
	}
}

func TestReportCSV(t *testing.T) {
	rep := &harness.Report{
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "x,y"}, {"2", `quo"te`}},
	}
	got := rep.CSV()
	want := "a,b\n1,\"x,y\"\n2,\"quo\"\"te\"\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}
