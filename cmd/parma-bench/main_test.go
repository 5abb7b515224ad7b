package main

import "testing"

func TestParseInts(t *testing.T) {
	got, err := parseInts(" 10, 20 ,30")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Fatalf("parseInts = %v", got)
	}
	empty, err := parseInts("  ")
	if err != nil || empty != nil {
		t.Fatalf("blank input: %v, %v", empty, err)
	}
	if _, err := parseInts("1,x,3"); err == nil {
		t.Fatal("bad list accepted")
	}
}
