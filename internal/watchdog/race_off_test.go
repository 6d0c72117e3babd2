//go:build !race

package watchdog

const raceBuild = false
