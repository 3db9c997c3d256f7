package core

// ExtractCheckpoints lets the external test compare the checkpoints the
// in-process sweep simulates with the files looppoint.ExportRegionPinballs
// writes.
var ExtractCheckpoints = extractCheckpoints
