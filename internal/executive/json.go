package executive

// JSON codec for ManagerKind: reports on the service daemon's wire
// carry the manager by its stable string name ("serial", "sharded",
// "async"), never the enum's numeric value.

import (
	"encoding/json"
	"fmt"
)

// MarshalJSON encodes the kind as its string name.
func (k ManagerKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a kind from its string name (or, leniently, the
// numeric enum value).
func (k *ManagerKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		kk, err := ParseManager(s)
		if err != nil {
			return err
		}
		*k = kk
		return nil
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	if int(n) >= len(ManagerKinds()) {
		return fmt.Errorf("executive: unknown manager kind %d", n)
	}
	*k = ManagerKind(n)
	return nil
}
