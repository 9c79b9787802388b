package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestParseSweep(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []float64
		err  string // substring of the expected error; empty = success
	}{
		{spec: "0:100:25", want: []float64{0, 25, 50, 75, 100}},
		{spec: "25:25:5", want: []float64{25}},
		{spec: "-40:-30:5", want: []float64{-40, -35, -30}},
		{spec: "0:10:4", want: []float64{0, 4, 8}},
		{spec: "25,45,70", want: []float64{25, 45, 70}},
		{spec: " 25 , 70 ", want: []float64{25, 70}},
		{spec: "0:inf:1", err: "not finite"},
		{spec: "-Inf:0:1", err: "not finite"},
		{spec: "0:1:+Inf", err: "not finite"},
		{spec: "NaN,25", err: "not finite"},
		{spec: "1e6:2e6:1e-12", err: "more than 256 points"},
		{spec: "0:256:1", err: "more than 256 points"},
		{spec: strings.TrimSuffix(strings.Repeat("25,", 257), ","), err: "more than 256 points"},
		{spec: "0:10", err: "want lo:hi:step"},
		{spec: "0:10:1:1", err: "want lo:hi:step"},
		{spec: "10:0:1", err: "need hi >= lo"},
		{spec: "0:10:0", err: "step > 0"},
		{spec: "0:10:-1", err: "step > 0"},
		{spec: "25,hot", err: "invalid syntax"},
	} {
		got, err := parseSweep(tc.spec)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("parseSweep(%.40q) = %v, %v; want error containing %q", tc.spec, got, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseSweep(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}
}

// TestParseSweepIntegerStepsUnchanged pins integer-step ranges to the
// values of the accumulating loop lo, lo+step, … that the range form has
// always produced, up to the 256-point cap.
func TestParseSweepIntegerStepsUnchanged(t *testing.T) {
	for _, r := range [][3]float64{{0, 255, 1}, {-40, 125, 5}, {0, 100, 10}, {20, 85, 7}} {
		var want []float64
		for x := r[0]; x <= r[1]+1e-9; x += r[2] {
			want = append(want, x)
		}
		spec := fmt.Sprintf("%g:%g:%g", r[0], r[1], r[2])
		got, err := parseSweep(spec)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseSweep(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
}
