package experiments

import (
	"slices"
	"strings"
	"testing"
)

// tiny returns a configuration small enough for CI while still exercising
// every code path of a runner.
func tiny() Config { return Config{Seed: 1, Scale: 0.004} }

func checkResult(t *testing.T, res *Result, wantCols int) {
	t.Helper()
	if res.Name == "" || res.Caption == "" {
		t.Fatal("result missing name/caption")
	}
	if len(res.Header) != wantCols {
		t.Fatalf("header has %d columns; want %d", len(res.Header), wantCols)
	}
	if len(res.Rows) == 0 {
		t.Fatal("result has no rows")
	}
	for i, row := range res.Rows {
		if len(row) != wantCols {
			t.Fatalf("row %d has %d cells; want %d", i, len(row), wantCols)
		}
		for j, cell := range row {
			if cell == "" {
				t.Fatalf("row %d cell %d empty", i, j)
			}
		}
	}
	var b strings.Builder
	res.Fprint(&b)
	out := b.String()
	if !strings.Contains(out, res.Name) || !strings.Contains(out, res.Header[0]) {
		t.Fatalf("Fprint output missing name/header:\n%s", out)
	}
}

func TestFig02Tiny(t *testing.T) {
	res, err := Fig02(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, 4)
	if len(res.Rows) != 3 {
		t.Fatalf("Fig02 should compare 3 methods, got %d", len(res.Rows))
	}
	pinColumns(t, res, 0, 2, [][]string{
		{"gIndex2", "27.6%"},
		{"GraphGrep-L4", "37.2%"},
		{"NPV-DSC", "12.0%"},
	})
}

// pinColumns requires each row of res to read its want row: column key,
// then the columns from `from` on. The pinned cells are candidate ratios,
// which a change to where or when a filter computes its answer must leave
// bit-identical; no timing column is pinned.
func pinColumns(t *testing.T, res *Result, key, from int, want [][]string) {
	t.Helper()
	if len(res.Rows) != len(want) {
		t.Fatalf("%s has %d rows; want %d", res.Name, len(res.Rows), len(want))
	}
	for i, row := range res.Rows {
		got := append([]string{row[key]}, row[from:from+len(want[i])-1]...)
		if !slices.Equal(got, want[i]) {
			t.Errorf("%s row %d = %v; want %v", res.Name, i, got, want[i])
		}
	}
}

func TestFig12Tiny(t *testing.T) {
	for _, d := range []staticDataset{DatasetAIDS, DatasetSynthetic} {
		res, err := Fig12(tiny(), d)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, 5) // query set + 4 depths
		if len(res.Rows) != 3 {
			t.Fatalf("Fig12 should sweep 3 query sets, got %d", len(res.Rows))
		}
	}
}

func TestFig13Tiny(t *testing.T) {
	res, err := Fig13(tiny(), DatasetAIDS)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, 4)
	if len(res.Rows) != 6 {
		t.Fatalf("Fig13 should sweep 6 query sets, got %d", len(res.Rows))
	}
}

func TestFig14And15Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: gIndex1 re-mining")
	}
	res14, res15, err := Fig1415(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res14, 5)
	if len(res14.Rows) != 3 {
		t.Fatalf("Fig14 should cover 3 datasets, got %d", len(res14.Rows))
	}
	pinColumns(t, res14, 0, 1, [][]string{
		{"real", "16.4%", "29.2%", "21.9%", "15.1%"},
		{"syn-sparse", "33.2%", "24.0%", "30.0%", "20.8%"},
		{"syn-dense", "98.8%", "96.0%", "97.2%", "97.2%"},
	})
	checkResult(t, res15, 5)
}

func TestFig16And17Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: three joins over three datasets")
	}
	res16, err := Fig16(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res16, 5)
	// 3 datasets × 4 fractions.
	if len(res16.Rows) != 12 {
		t.Fatalf("Fig16 rows = %d; want 12", len(res16.Rows))
	}
	res17, err := Fig17(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res17, 5)
}

func TestAblationTinyIsSound(t *testing.T) {
	res, err := Ablation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, 4)
	// The false-negative column (index 3) must be "0" for every method.
	for _, row := range res.Rows {
		if row[3] != "0" {
			t.Fatalf("method %s reported %s false negatives", row[0], row[3])
		}
	}
}

func TestScaledFloors(t *testing.T) {
	c := Config{Scale: 0.0001}
	if got := c.scaled(10000, 150); got != 150 {
		t.Fatalf("scaled floor = %d; want 150", got)
	}
	c.Scale = 1.0
	if got := c.scaled(10000, 150); got != 10000 {
		t.Fatalf("scaled full = %d; want 10000", got)
	}
}

func TestStaticDBCandidates(t *testing.T) {
	cfg := tiny()
	db := buildStaticDB(cfg, DatasetAIDS, 99)
	sdb := newStaticDB(db, 3)
	// Any database graph is a candidate for a query extracted from itself.
	q := db[0]
	if got := len(sdb.Candidates(q)); got < 1 {
		t.Fatalf("graph should be its own candidate; got %d", got)
	}
}

func TestScalingTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: three pool widths")
	}
	res, err := Scaling(Config{Seed: 1, Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, 4)
	// Pool widths 2 and 4 must report the sequential run's candidate set.
	for _, row := range res.Rows[1:] {
		if row[3] != "yes" {
			t.Fatalf("workers=%s candidates diverged", row[0])
		}
	}
}
