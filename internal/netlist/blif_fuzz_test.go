package netlist_test

import (
	"bytes"
	"testing"

	"tafpga/internal/bench"
	"tafpga/internal/netlist"
)

// FuzzParseBLIF feeds arbitrary bytes to ParseBLIF, the reader behind
// tafpga -in: it must return a netlist or an error, never panic, and any
// netlist it accepts must survive a WriteBLIF round trip with its block
// counts. Run it with
//
//	go test -run '^$' -fuzz FuzzParseBLIF -fuzztime 20s ./internal/netlist/
func FuzzParseBLIF(f *testing.F) {
	p, err := bench.ByName("raygentop")
	if err != nil {
		f.Fatal(err)
	}
	nl, err := bench.Generate(p.Scaled(1.0/512), bench.SeedFor(p.Name))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nl.WriteBLIF(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, s := range []string{
		".inputs a\n.names a b\n1 1\n.names a b\n1 1\n",
		".inputs a\n.latch a a re clk 0\n",
		".inputs a\n.names out_x\n",
		".inputs a\n.subckt dsp in0=a \\\nout=m\n.names m out_y\n1 1\n",
		".inputs a b\n.names a b out_x\n11 1\n",
		".inputs a\n.names a out_x\n0 1\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := netlist.ParseBLIF(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := n.WriteBLIF(&out); err != nil {
			t.Fatal(err)
		}
		back, err := netlist.ParseBLIF(&out)
		if err != nil {
			t.Fatalf("accepted netlist does not parse back: %v\n%s", err, out.String())
		}
		if a, b := n.Stats(), back.Stats(); a != b {
			t.Fatalf("round trip changed the block counts: %+v, then %+v\n%s", a, b, out.String())
		}
	})
}
