package guardband

import (
	"strings"
	"testing"
)

// TestAdaptiveSettleErrorSurfaced: a failed settle-time estimate must not be
// swallowed into a bogus "die settles in 0.000 s" line — the table renders
// SettleErr as "n/a". A healthy RunAdaptive reports a positive settle time
// and no error.
func TestAdaptiveSettleErrorSurfaced(t *testing.T) {
	failed := &AdaptiveResult{
		Epochs:      []Epoch{{ProfilePoint: ProfilePoint{Hours: 4, AmbientC: 25}, FmaxMHz: 100}},
		BaselineMHz: 80, TimeAvgFmaxMHz: 100, AvgGainPct: 25,
		SettleErr: "hotspot: settle time did not converge",
	}
	table := failed.String()
	if !strings.Contains(table, "die settle time n/a") {
		t.Fatalf("table does not render the settle failure as n/a:\n%s", table)
	}
	if strings.Contains(table, "settles in 0.000 s") {
		t.Fatalf("table still shows the bogus zero settle time:\n%s", table)
	}

	f := setup(t)
	res, err := RunAdaptive(f.an, f.pm, f.th, []ProfilePoint{{Hours: 4, AmbientC: 25}}, DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.SettleErr != "" || res.SettleS <= 0 {
		t.Fatalf("healthy run: SettleS = %g, SettleErr = %q", res.SettleS, res.SettleErr)
	}
	if len(res.Epochs) != 1 || res.Epochs[0].FmaxMHz <= 0 {
		t.Fatalf("epochs: %+v", res.Epochs)
	}
}
