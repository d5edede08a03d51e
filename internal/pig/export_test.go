package pig

// DecodeTupleChecked exposes the checked decoder to the external test
// package, which can import the web corpus for realistic records.
var DecodeTupleChecked = decodeTuple
