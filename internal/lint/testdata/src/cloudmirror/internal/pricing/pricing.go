// Package pricing launders the VOC model behind an intermediary, so a
// service package importing it reaches a baseline only transitively.
package pricing

import "cloudmirror/internal/voc"

// Price translates on behalf of its importers.
func Price() int { return voc.FromTAG() }
