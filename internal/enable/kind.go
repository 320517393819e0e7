// Package enable implements the enablement mappings of Jones (1986):
// the relations that determine which granules of a successor computational
// phase become correctly computable ("enabled") when granules of the
// current phase complete.
//
// The paper's taxonomy, with observed PAX/CASPER frequencies:
//
//   - universal: any successor granule is enabled by any (even the empty)
//     set of current-phase granules — the phases share no information.
//     (6/22 phases, 266/1188 parallel lines)
//   - identity (direct): successor granule i is enabled by completion of
//     current granule i. (9/22 phases, 551/1188 lines)
//   - null: no overlap is possible because serial actions and decisions
//     must occur between the phases. (4/22 phases, 262/1188 lines)
//   - reverse indirect: successor granule r requires a set of current
//     granules determined through a dynamically generated information
//     selection map; a composite granule map must be built. (2/22, 78 lines)
//   - forward indirect: completion of current granule p directly enables
//     successor granule IMAP(p). (1/22, 31 lines)
//
// The package also provides the logical predicate PARALLEL(x, y) over
// declared access footprints, a verifier that checks a declared mapping
// against the paper's correctness condition, and an inference routine that
// classifies a phase pair from footprints alone.
package enable

import "repro/internal/enum"

// Kind identifies an enablement mapping form.
type Kind uint8

const (
	// Null permits no overlap: the successor phase may begin only after
	// the current phase has completed (and any serial action has run).
	Null Kind = iota
	// Universal enables every successor granule immediately: the phases
	// are mutually independent and can be entirely overlapped.
	Universal
	// Identity enables successor granule i upon completion of current
	// granule i (the paper's "direct" mapping, I = I).
	Identity
	// ForwardIndirect enables successor granule F(p) upon completion of
	// current granule p, where F is a (dynamically generated) map.
	ForwardIndirect
	// ReverseIndirect enables successor granule r once every current
	// granule in Requires(r) has completed, where Requires derives from a
	// dynamically generated information selection map.
	ReverseIndirect
	// Seam is the paper's foreseen-but-deferred form for stencil codes
	// (e.g. the checkerboard successive over-relaxation): successor
	// granule r requires the completion of its geometric neighbours in
	// the current phase. Mechanically it is a structured reverse
	// indirect mapping; it is kept distinct for census and reporting.
	Seam
	numKinds
)

// NumKinds is the number of mapping kinds.
const NumKinds = int(numKinds)

// kinds is Kind's name table. Besides the String forms it takes the
// paper's short spellings, which .pax sources write in upper case.
var kinds = enum.New("mapping", Null, [][]string{
	{"null"}, {"universal"}, {"identity", "direct"},
	{"forward-indirect", "forward"}, {"reverse-indirect", "reverse"}, {"seam"},
})

// Kinds lists every mapping kind in declaration order.
func Kinds() []Kind { return kinds.Values() }

func (k Kind) String() string { return kinds.String(k) }

// ParseKind converts a mapping option name (as written in PAX language
// ENABLE/MAPPING= clauses, in CLI flags and on the service wire) to a
// Kind.
func ParseKind(s string) (Kind, error) { return kinds.Parse(s) }

// MarshalJSON encodes the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) { return kinds.Marshal(k) }

// UnmarshalJSON decodes a kind from any name ParseKind takes (or the
// numeric enum value).
func (k *Kind) UnmarshalJSON(b []byte) error { return kinds.Unmarshal(b, k) }

// Overlappable reports whether the kind permits any phase overlap at all.
func (k Kind) Overlappable() bool { return k != Null }

// Simple reports whether the kind is one of the two "easily identified"
// mappings the paper counts toward its 68% figure.
func (k Kind) Simple() bool { return k == Universal || k == Identity }

// Indirect reports whether the kind requires composite-map machinery.
func (k Kind) Indirect() bool {
	return k == ForwardIndirect || k == ReverseIndirect || k == Seam
}
