// Package voc is a test double of the VOC bandwidth model, one of the
// packages the baselines boundary rule keeps out of the service.
package voc

// FromTAG stands in for the TAG-to-VOC translation.
func FromTAG() int { return 3 }
