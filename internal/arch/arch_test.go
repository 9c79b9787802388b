package arch

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"
	"testing/quick"

	"tafpga/internal/coffe"
	"tafpga/internal/techmodel"
)

func TestBuildCoversDemand(t *testing.T) {
	p := coffe.DefaultParams()
	cases := []struct{ logic, bram, dsp int }{
		{1, 0, 0}, {10, 1, 1}, {100, 5, 3}, {500, 20, 10}, {40, 12, 0},
	}
	for _, c := range cases {
		g, err := Build(p, c.logic, c.bram, c.dsp)
		if err != nil {
			t.Fatalf("Build(%v): %v", c, err)
		}
		if g.Capacity(coffe.TileLogic) < c.logic {
			t.Fatalf("%v: logic capacity %d < %d", c, g.Capacity(coffe.TileLogic), c.logic)
		}
		if g.Capacity(coffe.TileBRAM) < c.bram {
			t.Fatalf("%v: bram capacity short", c)
		}
		if g.Capacity(coffe.TileDSP) < c.dsp {
			t.Fatalf("%v: dsp capacity short", c)
		}
	}
}

func TestBuildRejectsNegativeDemand(t *testing.T) {
	if _, err := Build(coffe.DefaultParams(), -1, 0, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestIORing(t *testing.T) {
	g, err := Build(coffe.DefaultParams(), 50, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < g.W; x++ {
		if g.Class(x, 0) != coffe.TileIO || g.Class(x, g.H-1) != coffe.TileIO {
			t.Fatal("top/bottom rows must be IO")
		}
	}
	for y := 0; y < g.H; y++ {
		if g.Class(0, y) != coffe.TileIO || g.Class(g.W-1, y) != coffe.TileIO {
			t.Fatal("left/right columns must be IO")
		}
	}
}

func TestColumnPattern(t *testing.T) {
	g, err := Build(coffe.DefaultParams(), 400, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	// BRAM and DSP live in full columns: within the core, a column is
	// homogeneous.
	for x := 1; x < g.W-1; x++ {
		first := g.Class(x, 1)
		for y := 2; y < g.H-1; y++ {
			if g.Class(x, y) != first {
				t.Fatalf("column %d is not homogeneous", x)
			}
		}
	}
}

func TestIndexAtRoundTrip(t *testing.T) {
	g, err := Build(coffe.DefaultParams(), 30, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(xi, yi uint8) bool {
		x := int(xi) % g.W
		y := int(yi) % g.H
		gx, gy := g.At(g.Index(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexPanicsOutOfRange(t *testing.T) {
	g, _ := Build(coffe.DefaultParams(), 10, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Index(-1, 0)
}

func TestSitesMatchCapacity(t *testing.T) {
	g, err := Build(coffe.DefaultParams(), 120, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []coffe.TileClass{coffe.TileLogic, coffe.TileBRAM, coffe.TileDSP, coffe.TileIO} {
		sites := g.Sites(c)
		if len(sites) != g.Capacity(c) {
			t.Fatalf("%s: %d sites vs capacity %d", c, len(sites), g.Capacity(c))
		}
		for _, s := range sites {
			if g.Class(s[0], s[1]) != c {
				t.Fatalf("%s: site %v has wrong class", c, s)
			}
		}
	}
	total := 0
	for _, c := range []coffe.TileClass{coffe.TileLogic, coffe.TileBRAM, coffe.TileDSP, coffe.TileIO} {
		total += g.Capacity(c)
	}
	if total != g.NumTiles() {
		t.Fatalf("classes do not partition the grid: %d vs %d", total, g.NumTiles())
	}
}

func TestStringAndPitch(t *testing.T) {
	g, _ := Build(coffe.DefaultParams(), 10, 1, 1)
	if g.String() == "" {
		t.Fatal("empty description")
	}
	if g.Params.TilePitchUm != coffe.DefaultParams().TilePitchUm {
		t.Fatal("pitch must come from the architecture parameters")
	}
}

func TestWriteVPRXML(t *testing.T) {
	dev := coffe.MustSizeDevice(techmodel.Default22nm(), coffe.DefaultParams(), 25)
	var buf bytes.Buffer
	if err := WriteVPRXML(&buf, dev, 25); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<architecture>", "sb_mux", "cb_mux", `length="4"`, "bram", "dsp",
		`mux_size="12"`, `mux_size="64"`, "grid_logic_tile_area",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VPR XML missing %q", want)
		}
	}
	// It must be well-formed XML.
	dec := xml.NewDecoder(bytes.NewBufferString(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("malformed XML: %v", err)
		}
	}
	// The emitted delays track the characterization temperature.
	var hot bytes.Buffer
	if err := WriteVPRXML(&hot, dev, 100); err != nil {
		t.Fatal(err)
	}
	if hot.String() == out {
		t.Fatal("temperature must change the emitted delays")
	}
}

// TestWriteVPRXMLDeterministic: the description is the same bytes on every
// call; its logic tile area is a float sum that once followed map order.
func TestWriteVPRXMLDeterministic(t *testing.T) {
	dev := coffe.MustSizeDevice(techmodel.Default22nm(), coffe.DefaultParams(), 25)
	var first bytes.Buffer
	if err := WriteVPRXML(&first, dev, 25); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		var buf bytes.Buffer
		if err := WriteVPRXML(&buf, dev, 25); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), first.Bytes()) {
			t.Fatalf("call %d wrote different bytes than the first", i)
		}
	}
}
