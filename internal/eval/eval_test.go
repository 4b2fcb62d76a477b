package eval

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRecallAt(t *testing.T) {
	ranked := []int{5, 3, 9, 1, 7}
	rel := map[int]bool{3: true, 7: true}
	cases := []struct {
		k    int
		want float64
	}{
		{1, 0},
		{2, 0.5},
		{4, 0.5},
		{5, 1},
		{0, 1},   // whole ranking
		{100, 1}, // clamped
	}
	for _, c := range cases {
		if got := RecallAt(ranked, rel, c.k); got != c.want {
			t.Errorf("RecallAt(k=%d) = %v, want %v", c.k, got, c.want)
		}
	}
	if got := RecallAt(ranked, nil, 3); got != 1 {
		t.Errorf("empty relevant set recall = %v, want 1", got)
	}
	if got := RecallAt(nil, rel, 3); got != 0 {
		t.Errorf("empty ranking recall = %v, want 0", got)
	}
}

func TestMeanMedian(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty slice stats not 0")
	}
	xs := []float64{3, 1, 2}
	if Mean(xs) != 2 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Median(xs) != 2 {
		t.Errorf("Median = %v", Median(xs))
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even Median = %v", got)
	}
	// Median must not mutate its input.
	if xs[0] != 3 {
		t.Error("Median sorted the caller's slice")
	}
}

func TestTimed(t *testing.T) {
	d := Timed(func() { time.Sleep(5 * time.Millisecond) })
	if d < 5*time.Millisecond {
		t.Errorf("Timed = %v, want ≥ 5ms", d)
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("E0: demo", "name", "value", "time")
	tab.AddRow("alpha", 1.23456, 1500*time.Microsecond)
	tab.AddRow("b", 42, "n/a")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"E0: demo", "name", "alpha", "1.235", "1.5ms", "42", "n/a"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
}
