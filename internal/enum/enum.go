// Package enum states once how an enumeration is spelled on the service
// wire, in CLI flags and in .pax sources. A Table holds one row per value,
// in declaration order: the value's name, then its aliases. The rules
// every enumeration shares live here and nowhere else:
//
//   - Parse accepts a name or an alias, ignoring case and surrounding
//     space; its error lists every name;
//   - String prints a value's name, or Type(n) for a value outside the
//     table;
//   - Marshal writes the name as a JSON string and refuses a value outside
//     the table;
//   - Unmarshal takes a name, as Parse does, or a JSON number inside the
//     table.
package enum

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Table is the name table of one enumeration whose values run from first
// up, one per row.
type Table[T ~uint8] struct {
	first T
	rows  [][]string
	pkg   string // the owner's package name, which opens every error
	typ   string // the type's own name, for String of an unknown value
	noun  string // what one value is called in errors ("manager")
}

// New returns the table of the enumeration whose first value is first:
// rows[i] names first+i and lists its aliases. noun is what errors call
// one value.
func New[T ~uint8](noun string, first T, rows [][]string) *Table[T] {
	typ := fmt.Sprintf("%T", first)
	dot := strings.LastIndexByte(typ, '.')
	return &Table[T]{first: first, rows: rows, pkg: typ[:dot], typ: typ[dot+1:], noun: noun}
}

// in reports whether n is one of the table's values.
func (t *Table[T]) in(n int) bool {
	i := n - int(t.first)
	return i >= 0 && i < len(t.rows)
}

// Values lists every value in declaration order.
func (t *Table[T]) Values() []T {
	vs := make([]T, len(t.rows))
	for i := range vs {
		vs[i] = t.first + T(i)
	}
	return vs
}

// Names lists every value's name in declaration order; CLI help and
// parse errors are built from it.
func (t *Table[T]) Names() []string {
	ns := make([]string, len(t.rows))
	for i, r := range t.rows {
		ns[i] = r[0]
	}
	return ns
}

// String returns v's name, or Type(n) when v is outside the table.
func (t *Table[T]) String(v T) string {
	if !t.in(int(v)) {
		return fmt.Sprintf("%s(%d)", t.typ, uint8(v))
	}
	return t.rows[v-t.first][0]
}

// Parse resolves a name or an alias, ignoring case and surrounding space.
func (t *Table[T]) Parse(s string) (T, error) {
	name := strings.TrimSpace(s)
	for i, r := range t.rows {
		for _, n := range r {
			if strings.EqualFold(name, n) {
				return t.first + T(i), nil
			}
		}
	}
	return 0, fmt.Errorf("%s: unknown %s %q (valid %ss: %s)",
		t.pkg, t.noun, s, t.noun, strings.Join(t.Names(), "|"))
}

// Marshal encodes v as its name, and refuses a value outside the table:
// no decoder would take its Type(n) form back.
func (t *Table[T]) Marshal(v T) ([]byte, error) {
	if !t.in(int(v)) {
		return nil, fmt.Errorf("%s: cannot marshal unknown %s %d", t.pkg, t.noun, uint8(v))
	}
	return json.Marshal(t.String(v))
}

// Unmarshal decodes a name (or alias), or a number inside the table. On
// an error *v is unchanged.
func (t *Table[T]) Unmarshal(b []byte, v *T) error {
	var s string
	if json.Unmarshal(b, &s) == nil {
		x, err := t.Parse(s)
		if err != nil {
			return err
		}
		*v = x
		return nil
	}
	var n int
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("%s: %s must be a name or a number: %w", t.pkg, t.noun, err)
	}
	if !t.in(n) {
		return fmt.Errorf("%s: unknown %s %d", t.pkg, t.noun, n)
	}
	*v = T(n)
	return nil
}
