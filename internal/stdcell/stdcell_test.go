package stdcell

import (
	"math"
	"testing"

	"tafpga/internal/techmodel"
)

func TestCharacterizeAllCells(t *testing.T) {
	lib := Characterize(techmodel.Default22nm(), 25)
	for _, k := range Kinds() {
		c := lib.Cell(k)
		if c.IntrinsicPs <= 0 || c.SlopePsPerFF <= 0 || c.InputCapFF <= 0 ||
			c.LeakUW <= 0 || c.AreaUm2 <= 0 || c.Inputs < 1 {
			t.Fatalf("%s: non-physical timing record %+v", k, c)
		}
	}
}

func TestDelayGrowsWithTemperature(t *testing.T) {
	kit := techmodel.Default22nm()
	cold := Characterize(kit, 0)
	hot := Characterize(kit, 100)
	for _, k := range Kinds() {
		if hot.Delay(k, 5) <= cold.Delay(k, 5) {
			t.Fatalf("%s: delay must grow with temperature", k)
		}
	}
}

func TestDelayGrowsWithLoad(t *testing.T) {
	lib := Characterize(techmodel.Default22nm(), 25)
	if lib.Delay(NAND2, 10) <= lib.Delay(NAND2, 1) {
		t.Fatal("delay must grow with load")
	}
}

func TestStackOrdering(t *testing.T) {
	lib := Characterize(techmodel.Default22nm(), 25)
	// Deeper stacks drive worse: NAND3 slower than NAND2 slower than INV.
	if !(lib.Delay(INV, 4) < lib.Delay(NAND2, 4) && lib.Delay(NAND2, 4) < lib.Delay(NAND3, 4)) {
		t.Fatal("stack-depth delay ordering violated")
	}
	if lib.Delay(FA, 4) <= lib.Delay(XOR2, 4) {
		t.Fatal("full adder must be the slowest combinational cell")
	}
}

func TestDriveScaling(t *testing.T) {
	kit := techmodel.Default22nm()
	weak := CharacterizeScaled(kit, 25, 0.5, NominalSkew(kit))
	strong := CharacterizeScaled(kit, 25, 2.0, NominalSkew(kit))
	if strong.Cell(INV).SlopePsPerFF >= weak.Cell(INV).SlopePsPerFF {
		t.Fatal("stronger drive must reduce the load slope")
	}
	if strong.Cell(INV).InputCapFF <= weak.Cell(INV).InputCapFF {
		t.Fatal("stronger drive must present more input capacitance")
	}
	if strong.Cell(INV).AreaUm2 <= weak.Cell(INV).AreaUm2 {
		t.Fatal("stronger drive must cost area")
	}
	if strong.Cell(INV).LeakUW <= weak.Cell(INV).LeakUW {
		t.Fatal("stronger drive must leak more")
	}
}

func TestSkewBalance(t *testing.T) {
	kit := techmodel.Default22nm()
	nominal := NominalSkew(kit)
	bal := CharacterizeScaled(kit, 25, 1, nominal)
	skewed := CharacterizeScaled(kit, 25, 1, 0.45)
	if skewed.Delay(INV, 4) <= bal.Delay(INV, 4) {
		t.Fatal("a badly skewed cell must have a slower worst edge at the balance temperature")
	}
}

func TestCharacterizePanicsOnBadKnobs(t *testing.T) {
	kit := techmodel.Default22nm()
	for _, f := range []func(){
		func() { CharacterizeScaled(kit, 25, 0, 0.6) },
		func() { CharacterizeScaled(kit, 25, -1, 0.6) },
		func() { CharacterizeScaled(kit, 25, 1, 0) },
		func() { CharacterizeScaled(kit, 25, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCellPanicsOnInvalidKind(t *testing.T) {
	lib := Characterize(techmodel.Default22nm(), 25)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	lib.Cell(Kind(99))
}

func TestFFTimingPositive(t *testing.T) {
	lib := Characterize(techmodel.Default22nm(), 25)
	if lib.ClkToQ(3) <= 0 || lib.Setup() <= 0 {
		t.Fatal("FF timing must be positive")
	}
}

func TestKindsStable(t *testing.T) {
	ks := Kinds()
	if len(ks) != int(numKinds) {
		t.Fatalf("Kinds() returned %d of %d", len(ks), int(numKinds))
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Fatal("Kinds() must be sorted")
		}
	}
	if INV.String() != "INV" || FA.String() != "FA" {
		t.Fatal("kind names broken")
	}
}

func TestKitAccessor(t *testing.T) {
	kit := techmodel.Default22nm()
	if Characterize(kit, 25).Kit() != kit {
		t.Fatal("library must expose its kit")
	}
}

// TestCellLeakMatchesCharacterize: the one-cell leakage query is the
// library snapshot's LeakUW, bit for bit, for every kind across the
// admitted ambient range and beyond the device tables.
func TestCellLeakMatchesCharacterize(t *testing.T) {
	kit := techmodel.Default22nm()
	for tempC := -55.0; tempC <= 150; tempC += 2.5 {
		lib := Characterize(kit, tempC)
		for _, k := range Kinds() {
			got, want := CellLeak(kit, k, tempC), lib.Cell(k).LeakUW
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v at %g °C: CellLeak %v, Characterize %v", k, tempC, got, want)
			}
		}
	}
}
