// Package iotscope reproduces the measurement system of "Inferring,
// Characterizing, and Investigating Internet-Scale Malicious IoT Device
// Activities: A Network Telescope Perspective" (Torabi et al., DSN 2018).
//
// The repository is organized as a set of substrates under internal/
// (flowtuple codec, network telescope, synthetic Internet registry, IoT
// inventory, workload generator, threat-intelligence and malware databases)
// topped by the paper's analysis pipeline in internal/core. See DESIGN.md
// for the full system inventory and EXPERIMENTS.md for the per-table and
// per-figure reproduction record.
package iotscope
