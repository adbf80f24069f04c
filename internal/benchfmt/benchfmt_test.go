package benchfmt

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestEncodeSortedRoundTrip(t *testing.T) {
	r := &Report{Revision: "abc123", GoMaxProcs: 4, Benchtime: "100ms"}
	r.Add(Result{Name: "Fig16_Skyline", Iterations: 50, NsPerOp: 1200, AllocsPerOp: 3, BytesPerOp: 96})
	r.Add(Result{Name: "Fig02_NPVDSC", Iterations: 80, NsPerOp: 900, AllocsPerOp: 1, BytesPerOp: 32})

	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Index(out, "Fig02_NPVDSC") > strings.Index(out, "Fig16_Skyline") {
		t.Fatalf("results not sorted by name:\n%s", out)
	}

	var got Report
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Revision != "abc123" || got.GoMaxProcs != 4 || got.Benchtime != "100ms" {
		t.Fatalf("environment fields lost: %+v", got)
	}
	if len(got.Results) != 2 {
		t.Fatalf("results = %d; want 2", len(got.Results))
	}
	if res := got.Results[0]; res.Name != "Fig02_NPVDSC" || res.NsPerOp != 900 || res.AllocsPerOp != 1 {
		t.Fatalf("first result = %+v", res)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	mk := func(order []string) string {
		r := &Report{}
		for _, n := range order {
			r.Add(Result{Name: n, Iterations: 1, NsPerOp: 1})
		}
		var buf bytes.Buffer
		if err := r.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := mk([]string{"b", "a", "c"})
	b := mk([]string{"c", "b", "a"})
	if a != b {
		t.Fatalf("encoding depends on insertion order:\n%s\nvs\n%s", a, b)
	}
}
