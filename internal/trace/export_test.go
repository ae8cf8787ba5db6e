package trace

// ReadAtSource exports the ReadAt-fallback seam to the package's
// external tests.
var ReadAtSource = readAtSource
