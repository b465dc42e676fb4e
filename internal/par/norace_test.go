//go:build !race

package par

// raceEnabled reports whether the race detector is on; under it sync.Pool
// drops a share of Puts on purpose.
const raceEnabled = false
