//go:build !race

package mpilib

const raceBuild = false
