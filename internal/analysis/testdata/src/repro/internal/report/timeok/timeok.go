// Package timeok is a detertaint negative fixture: it reads the wall
// clock, but is not reachable from any deterministic root (no driver
// registry or core.Measure calls into a report package).
package timeok

import "time"

// Stamp returns the current time; fine off the driver call paths as far
// as detertaint is concerned (the wallclock suppression answers the
// module-wide clock-confinement rule).
func Stamp() time.Time {
	//charnet:ignore wallclock fixture exists to prove detertaint ignores unreachable code
	return time.Now()
}
