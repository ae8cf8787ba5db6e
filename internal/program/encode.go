package program

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
)

// image is the serialized form of a Program; only structural fields are
// stored, and indexes are rebuilt on load by re-running Layout.
type image struct {
	Name      string
	Base      uint64
	FuncAlign uint32
	FuncOrder []FuncID
	Funcs     []Func
	Blocks    []Block
}

func init() {
	// gob numbers a type the first time the process encodes it and writes
	// the number into the bytes, so Save's output (and Fingerprint) would
	// depend on what the process encoded before. Encoding a zero image
	// before any importer runs numbers image's types first in every
	// process; core's init numbers the plan's next. An encoding error
	// would be Save's own, which Save reports.
	_ = gob.NewEncoder(io.Discard).Encode(image{})
}

// Save writes the program image to w (gob-encoded). The layout base is
// preserved so a reloaded program has identical addresses.
func (p *Program) Save(w io.Writer) error {
	if !p.laidOut {
		return fmt.Errorf("program %q: Save before Layout", p.Name)
	}
	enc := gob.NewEncoder(w)
	return enc.Encode(image{
		Name:      p.Name,
		Base:      p.Base,
		FuncAlign: p.FuncAlign,
		FuncOrder: p.FuncOrder,
		Funcs:     p.Funcs,
		Blocks:    p.Blocks,
	})
}

// Fingerprint returns a stable content hash of the laid-out program:
// the SHA-256 (hex) of its serialized image. Two programs with equal
// fingerprints are structurally identical and simulate identically, so
// content-addressed job signatures use it to key results by what the
// program is rather than what it is called.
//
// The first call computes it and later ones return the memo, until Layout
// runs again; concurrent callers are safe. A program changed without a
// new Layout keeps its old fingerprint.
func (p *Program) Fingerprint() (string, error) {
	if fp := p.fingerprint.Load(); fp != nil {
		return *fp, nil
	}
	h := sha256.New()
	if err := p.Save(h); err != nil {
		return "", err
	}
	fp := hex.EncodeToString(h.Sum(nil))
	p.fingerprint.Store(&fp)
	return fp, nil
}

// Load reads a program image written by Save, validates it, and rebuilds
// its layout and lookup indexes.
func Load(r io.Reader) (*Program, error) {
	var img image
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("program: decode image: %w", err)
	}
	p := &Program{
		Name:      img.Name,
		FuncAlign: img.FuncAlign,
		FuncOrder: img.FuncOrder,
		Funcs:     img.Funcs,
		Blocks:    img.Blocks,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.Layout(img.Base)
	return p, nil
}
