// Package hose is a test double of the hose bandwidth model, which the
// baselines boundary rule keeps out of the service.
package hose

// FromTAG stands in for the TAG-to-hose translation.
func FromTAG() int { return 4 }
