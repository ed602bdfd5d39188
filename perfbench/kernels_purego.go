//go:build !amd64 || purego

package main

// kernels names the cmat kernel build the benchmark was linked with.
const kernels = "purego"
