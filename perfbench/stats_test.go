package main

import (
	"math"
	"testing"
)

func TestHDQuantile(t *testing.T) {
	if got := betaInc(2, 3, 0.4); math.Abs(got-0.5248) > 1e-4 {
		t.Errorf("I_0.4(2,3) = %v, want 0.5248", got)
	}
	var xs []float64
	for i := 1; i <= 101; i++ {
		xs = append(xs, float64(i))
	}
	if got := hdQuantile(xs, 0.5); math.Abs(got-51) > 1e-6 {
		t.Errorf("HD median of 1..101 = %v, want 51", got)
	}
	if got := hdQuantile(xs, 0.9); math.Abs(got-91.2) > 0.5 {
		t.Errorf("HD p90 of 1..101 = %v, want about 91.2", got)
	}
	if got := hdQuantile([]float64{5, 5, 5}, 0.9); math.Abs(got-5) > 1e-9 {
		t.Errorf("HD p90 of a constant = %v, want 5", got)
	}
}
