//go:build race

package watchdog

// raceBuild: the race detector instruments every atomic, so timing
// bounds do not hold under it.
const raceBuild = true
