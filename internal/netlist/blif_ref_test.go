package netlist_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"tafpga/internal/bench"
	"tafpga/internal/netlist"
)

// writeBLIFRef is the fmt-based writer whose bytes WriteBLIF must keep:
// they are the flow cache's netlist key.
func writeBLIFRef(n *netlist.Netlist, w io.Writer) error {
	netName := func(id int) string {
		if b := &n.Blocks[id]; b.Name != "" {
			return b.Name
		}
		return fmt.Sprintf("n%d", id)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", n.Name)
	var ins, outs []string
	for i := range n.Blocks {
		switch n.Blocks[i].Type {
		case netlist.Input:
			ins = append(ins, netName(i))
		case netlist.Output:
			outs = append(outs, "out_"+n.Blocks[i].Name)
		}
	}
	fmt.Fprintf(bw, ".inputs %s\n", strings.Join(ins, " "))
	fmt.Fprintf(bw, ".outputs %s\n", strings.Join(outs, " "))
	for i := range n.Blocks {
		b := &n.Blocks[i]
		switch b.Type {
		case netlist.LUT:
			fmt.Fprintf(bw, ".names")
			for _, in := range b.Inputs {
				fmt.Fprintf(bw, " %s", netName(in))
			}
			fmt.Fprintf(bw, " %s\n", netName(i))
			k := len(b.Inputs)
			for m := 0; m < 1<<uint(k); m++ {
				if b.LUTEval(m) {
					for bit := 0; bit < k; bit++ {
						if m>>uint(bit)&1 == 1 {
							fmt.Fprint(bw, "1")
						} else {
							fmt.Fprint(bw, "0")
						}
					}
					fmt.Fprintln(bw, " 1")
				}
			}
		case netlist.FF:
			fmt.Fprintf(bw, ".latch %s %s re clk 0\n", netName(b.Inputs[0]), netName(i))
		case netlist.BRAM, netlist.DSP:
			kind := "bram"
			if b.Type == netlist.DSP {
				kind = "dsp"
			}
			fmt.Fprintf(bw, ".subckt %s", kind)
			for j, in := range b.Inputs {
				fmt.Fprintf(bw, " in%d=%s", j, netName(in))
			}
			fmt.Fprintf(bw, " out=%s\n", netName(i))
		case netlist.Output:
			fmt.Fprintf(bw, ".names %s out_%s\n1 1\n", netName(b.Inputs[0]), b.Name)
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

func TestWriteBLIFMatchesReference(t *testing.T) {
	// An unnamed block and a netlist without pads cover the n<id> names
	// and the empty .inputs/.outputs lines.
	bare := netlist.New("bare")
	bare.Add(netlist.BRAM, "", []int{0}, 0)
	nets := []*netlist.Netlist{bare}
	for _, scale := range []float64{1.0 / 64, 1.0 / 16} {
		for _, p := range bench.VTR {
			nl, err := bench.Generate(p.Scaled(scale), bench.SeedFor(p.Name))
			if err != nil {
				t.Fatal(err)
			}
			nets = append(nets, nl)
		}
	}
	for _, nl := range nets {
		var got, want bytes.Buffer
		if err := nl.WriteBLIF(&got); err != nil {
			t.Fatal(err)
		}
		if err := writeBLIFRef(nl, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s (%d blocks): WriteBLIF bytes differ from the reference writer", nl.Name, len(nl.Blocks))
		}
	}
}
