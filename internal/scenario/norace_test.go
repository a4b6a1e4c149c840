//go:build !race

package scenario

// raceDetector reports whether the tests run under the race detector,
// whose instrumentation allocates on its own.
const raceDetector = false
