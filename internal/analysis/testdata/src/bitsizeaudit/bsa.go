// Package bsa is the bitsizeaudit fixture: BitSize methods that account
// for every field, miss one, or exempt simulator-side caches.
package bsa

func width(int64) int { return 8 }
func flag(bool) int   { return 1 }

// Good reads every counted field; cache is an exempted memo.
type Good struct {
	A     int64
	B     bool
	cache int //ssmst:nobits -- recomputable memo, fixture
}

func (g *Good) BitSize() int { return width(g.A) + flag(g.B) }

// Bad misses a field.
type Bad struct {
	A int64
	B bool
}

func (b *Bad) BitSize() int { return width(b.A) } // want "does not read field B"

// Inner is an embeddable sized component.
type Inner struct{ V int64 }

// BitSize reads the single field.
func (i Inner) BitSize() int { return width(i.V) }

// Outer delegates the embedded block to its own BitSize: clean.
type Outer struct {
	Inner
	W int64
}

func (o *Outer) BitSize() int { return o.Inner.BitSize() + width(o.W) }

// OuterBad ignores the embedded block.
type OuterBad struct {
	Inner
	W int64
}

func (o *OuterBad) BitSize() int { return width(o.W) } // want "embedded"

// NoMethod has no BitSize and owes nothing.
type NoMethod struct{ X int }

// Shared is measured through a shared width formula: BitSize delegates to a
// same-package helper (a formula other measurements may also call), so the
// fields are read one call down. The audit expands same-package callee
// bodies, so this is clean.
type Shared struct {
	A int64
	B bool
	C int64
}

func (s *Shared) BitSize() int { return s.sharedFlat(flag(s.B)) }

func (s *Shared) sharedFlat(b int) int { return width(s.A) + b + width(s.C) }

// SharedBad delegates too, but the shared formula misses a field — the
// finding must still land on BitSize, the accountable method.
type SharedBad struct {
	A int64
	C int64
}

func (s *SharedBad) BitSize() int { return s.badFlat() } // want "does not read field C"

func (s *SharedBad) badFlat() int { return width(s.A) }

// DeepChain exceeds the bounded expansion depth (method → helper → helper →
// helper): fields read only at depth 4 stay invisible, so the audit flags
// them — the bound keeps the accounting local, not a loophole.
type DeepChain struct {
	A int64
}

func (d *DeepChain) BitSize() int { return d.h1() } // want "does not read field A"

func (d *DeepChain) h1() int { return d.h2() }
func (d *DeepChain) h2() int { return d.h3() }
func (d *DeepChain) h3() int { return width(d.A) }
