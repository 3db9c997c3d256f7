package timing

// UpdateGolden is -update, for the golden tests of the external test
// package.
var UpdateGolden = updateGolden
