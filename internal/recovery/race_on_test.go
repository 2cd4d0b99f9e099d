//go:build race

package recovery

// raceDetector reports whether the race detector is instrumenting this
// build; the explorer scales its schedule budget by it.
const raceDetector = true
