//go:build race

package mpilib

// raceBuild: the race detector allocates, and sync.Pool drops a share of
// its Puts under it, so allocation counts do not hold.
const raceBuild = true
