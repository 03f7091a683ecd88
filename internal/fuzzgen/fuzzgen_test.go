package fuzzgen

import (
	"testing"

	ftvm "repro"
)

// TestGenerateDeterministic pins the generator contract: the same (seed,
// size) pair renders byte-identical source.
func TestGenerateDeterministic(t *testing.T) {
	for _, size := range []Size{SizeSmall, SizeMedium, SizeLarge} {
		for seed := uint64(0); seed < 20; seed++ {
			a := Generate(seed, size).Render()
			b := Generate(seed, size).Render()
			if a != b {
				t.Fatalf("seed %d size %v: non-deterministic render", seed, size)
			}
		}
	}
}

// TestGeneratedProgramsCompile is the cheap front line: every generated
// program must be valid minilang.
func TestGeneratedProgramsCompile(t *testing.T) {
	for _, size := range []Size{SizeSmall, SizeMedium, SizeLarge} {
		for seed := uint64(0); seed < 60; seed++ {
			src := Generate(seed, size).Render()
			if _, err := ftvm.CompileSource("gen", src); err != nil {
				t.Fatalf("seed %d size %v: compile: %v\nsource:\n%s", seed, size, err, src)
			}
		}
	}
}

// TestCloneIsDeep guards the shrinker's foundation: edits to a clone must
// never leak into the original.
func TestCloneIsDeep(t *testing.T) {
	p := Generate(7, SizeMedium)
	orig := p.Render()
	cp := p.Clone()
	cp.Spawns = cp.Spawns[:1]
	cp.Gate = false
	removeStmts(cp, func(Stmt) bool { return true })
	for _, g := range cp.Globals {
		g.Init = 999
	}
	if p.Render() != orig {
		t.Fatal("mutating a clone changed the original program")
	}
}

func TestCompareFrames(t *testing.T) {
	ref := []string{"m|start", "w0|k1=5", "m|end", "w1|k2=7"}
	// Cross-writer reordering is legal.
	if d, ok := CompareFrames(ref, []string{"w1|k2=7", "m|start", "w0|k1=5", "m|end"}); !ok {
		t.Fatalf("legal reorder flagged: %s", d)
	}
	// Per-writer reorder is a divergence.
	if _, ok := CompareFrames(ref, []string{"m|end", "w0|k1=5", "m|start", "w1|k2=7"}); ok {
		t.Fatal("per-writer reorder not flagged")
	}
	// Missing frame is a divergence.
	if _, ok := CompareFrames(ref, []string{"m|start", "m|end", "w1|k2=7"}); ok {
		t.Fatal("missing frame not flagged")
	}
	// Extra stream is a divergence.
	if _, ok := CompareFrames(ref, append(append([]string(nil), ref...), "w9|k3=0")); ok {
		t.Fatal("extra stream not flagged")
	}
}

func TestSizeByName(t *testing.T) {
	for _, size := range []Size{SizeSmall, SizeMedium, SizeLarge} {
		got, err := SizeByName(size.String())
		if err != nil || got != size {
			t.Fatalf("SizeByName(%q) = %v, %v", size.String(), got, err)
		}
	}
	if _, err := SizeByName("jumbo"); err == nil {
		t.Fatal("SizeByName accepted an unknown size")
	}
}
