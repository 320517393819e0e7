//go:build !amd64

package clock

// Without a time-stamp counter to read, Now is time.Since of the epoch.
const useCounter = false

func counterNow() Stamp { panic("clock: no counter on this architecture") }
