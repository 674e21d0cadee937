package matview

// EncodeBody lets the external test package hold rendered bodies to the
// package's own rendering of the serving layer's encoder.
var EncodeBody = encodeBody
