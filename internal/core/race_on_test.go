//go:build race

package core

// raceBuild: the race detector allocates, so allocation counts do not
// hold under it.
const raceBuild = true
