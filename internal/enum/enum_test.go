package enum_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	rundown "repro"
	"repro/internal/enable"
	"repro/internal/enum"
	"repro/internal/executive"
	"repro/internal/fault"
	"repro/internal/sim"
)

// color starts past zero and has aliases, so the table's offset and its
// alias rows are both exercised.
type color uint8

const (
	red color = 2 + iota
	green
	blue
)

var colorRows = [][]string{{"red", "r"}, {"green"}, {"blue", "b", "azure"}}

var colors = enum.New("color", red, colorRows)

func (c color) String() string                { return colors.String(c) }
func (c color) MarshalJSON() ([]byte, error)  { return colors.Marshal(c) }
func (c *color) UnmarshalJSON(b []byte) error { return colors.Unmarshal(b, c) }

func TestTable(t *testing.T) {
	check(t, colors.Parse, red, colorRows)
	if got, want := colors.Values(), []color{red, green, blue}; !reflect.DeepEqual(got, want) {
		t.Errorf("Values() = %v, want %v", got, want)
	}
	if got, want := colors.Names(), []string{"red", "green", "blue"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %q, want %q", got, want)
	}
	_, err := colors.Parse(" Purple ")
	if want := `enum_test: unknown color " Purple " (valid colors: red|green|blue)`; err == nil || err.Error() != want {
		t.Errorf("Parse error = %v, want %s", err, want)
	}
	// Anything but a name or a number inside the table is refused, and
	// leaves the target alone.
	for _, in := range []string{`null`, `true`, `{}`, `[2]`, `2.5`, `"purple"`, `""`, `-1`, `256`, `258`} {
		c := green
		if err := colors.Unmarshal([]byte(in), &c); err == nil || c != green {
			t.Errorf("Unmarshal(%s) = %v, %v; want an error and no change", in, c, err)
		}
	}
}

// TestEnumerations: every enumeration on the wire, one row set per
// owner — each value's name, then its aliases — held to the table's
// rules through the owner's exported parser and JSON methods, the calls
// the CLIs and the wire make.
func TestEnumerations(t *testing.T) {
	t.Run("BackendKind", func(t *testing.T) {
		check(t, rundown.ParseBackendKind, rundown.ExecBackend, [][]string{{"goroutines"}, {"pool"}, {"virtual"}})
	})
	t.Run("ManagerKind", func(t *testing.T) {
		check(t, executive.ParseManager, executive.SerialManager, [][]string{{"serial"}, {"sharded"}, {"async"}})
	})
	t.Run("MgmtModel", func(t *testing.T) {
		check(t, sim.ParseModel, sim.StealsWorker, [][]string{
			{"steals-worker", "steals"}, {"dedicated"}, {"sharded"}, {"adaptive"}, {"async"},
		})
	})
	t.Run("FaultKind", func(t *testing.T) {
		check(t, fault.ParseKind, fault.GrainPanic, [][]string{
			{"grain-panic"}, {"grain-error"}, {"grain-stall"}, {"grain-slow"},
			{"worker-crash"}, {"worker-wedge"}, {"worker-slow"}, {"mgmt-delay"}, {"drop-wakeup"},
		})
	})
	t.Run("MappingKind", func(t *testing.T) {
		check(t, enable.ParseKind, enable.Null, [][]string{
			{"null"}, {"universal"}, {"identity", "direct"},
			{"forward-indirect", "forward"}, {"reverse-indirect", "reverse"}, {"seam"},
		})
	})
}

// check holds an enumeration to the table's rules, where rows[i] is the
// name, then the aliases, of value first+i:
//
//   - every name and alias parses, in any case and with surrounding
//     space, to its value, and String prints the name;
//   - every value marshals to its name and decodes back, from the name
//     and from its number;
//   - the numbers just below first and just past the last value are
//     refused by Unmarshal, which leaves its target alone, and by
//     Marshal, and String prints the value past the last as Type(n);
//   - an unknown name's error lists every name.
func check[T ~uint8](t *testing.T, parse func(string) (T, error), first T, rows [][]string) {
	t.Helper()
	for i, row := range rows {
		v := first + T(i)
		if got := fmt.Sprint(v); got != row[0] {
			t.Errorf("value %d prints %q, want %q", v, got, row[0])
		}
		for _, s := range row {
			for _, in := range []string{s, strings.ToUpper(s), " " + strings.ToUpper(s[:1]) + s[1:] + "\t"} {
				if got, err := parse(in); err != nil || got != v {
					t.Errorf("Parse(%q) = %v, %v; want %v", in, got, err, v)
				}
			}
		}
		b, err := json.Marshal(v)
		if err != nil || string(b) != strconv.Quote(row[0]) {
			t.Errorf("Marshal(%v) = %s, %v; want %q", v, b, err, row[0])
		}
		for _, in := range []string{string(b), strconv.Itoa(int(v))} {
			var got T
			if err := json.Unmarshal([]byte(in), &got); err != nil || got != v {
				t.Errorf("Unmarshal(%s) = %v, %v; want %v", in, got, err, v)
			}
		}
	}
	last := int(first) + len(rows) - 1
	for _, n := range []int{int(first) - 1, last + 1} {
		got := first
		if err := json.Unmarshal([]byte(strconv.Itoa(n)), &got); err == nil || got != first {
			t.Errorf("Unmarshal(%d) = %v, %v; want an error and no change", n, got, err)
		}
		if n < 0 {
			continue
		}
		if b, err := json.Marshal(T(n)); err == nil {
			t.Errorf("Marshal(%d) = %s, want an error", n, b)
		}
	}
	typ := fmt.Sprintf("%T", first)
	want := fmt.Sprintf("%s(%d)", typ[strings.LastIndexByte(typ, '.')+1:], last+1)
	if got := fmt.Sprint(T(last + 1)); got != want {
		t.Errorf("value %d prints %q, want %q", last+1, got, want)
	}
	_, err := parse("no-such-name")
	if err == nil {
		t.Fatal(`Parse("no-such-name") succeeded`)
	}
	for _, row := range rows {
		if !strings.Contains(err.Error(), row[0]) {
			t.Errorf("unknown-name error %q does not list %q", err, row[0])
		}
	}
}
