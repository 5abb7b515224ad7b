package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestAnomalyFlagsParse(t *testing.T) {
	var a anomalyFlags
	if err := a.Set("4,5,1.5,2.5,6"); err != nil {
		t.Fatal(err)
	}
	if err := a.Set(" 1 , 2 , 3 , 4 , 5 "); err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 {
		t.Fatalf("parsed %d anomalies", len(a))
	}
	if a[0].CenterI != 4 || a[0].CenterJ != 5 || a[0].RadiusI != 1.5 || a[0].RadiusJ != 2.5 || a[0].Factor != 6 {
		t.Fatalf("first anomaly = %+v", a[0])
	}
	if a.String() == "" {
		t.Fatal("String is empty")
	}
}

func TestAnomalyFlagsRejectsBadInput(t *testing.T) {
	var a anomalyFlags
	for _, in := range []string{"", "1,2,3,4", "1,2,3,4,5,6", "a,b,c,d,e"} {
		if err := a.Set(in); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

// TestHyperRejectsBadDims: an extent below 1 and a lattice whose point or
// edge count overflows int come back as a "bad -dims" error instead of a
// panic or a wrapped count; a valid lattice still prints its census.
func TestHyperRejectsBadDims(t *testing.T) {
	for _, dims := range []string{
		"0,3",
		"-2,3",
		"3000000,3000000,3000000",      // 2.7e19 points
		"100000,100000,100000,100000",  // 1e20 points
		strings.Repeat("2,", 61) + "2", // 2^62 points fit, 62·2^61 edges do not
	} {
		var out bytes.Buffer
		err := runHyper(&out, dims)
		if err == nil || !strings.Contains(err.Error(), "bad -dims") {
			t.Errorf("runHyper(%q) = %v, want a bad -dims error", dims, err)
		}
		if out.Len() != 0 {
			t.Errorf("runHyper(%q) printed %q before failing", dims, out.String())
		}
	}
	var out bytes.Buffer
	if err := runHyper(&out, "3,3"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cycle rank β₁:        4\n") {
		t.Fatalf("3x3 census lacks β₁ 4:\n%s", out.String())
	}
}
