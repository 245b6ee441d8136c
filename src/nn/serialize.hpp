// Weight serialization for GraphNetworks.
//
// One format: a geonas::io container (magic "GEONASW2", version 2,
// length-prefixed shapes, raw IEEE-754 payload, CRC-32 trailer).
// Non-finite values round-trip bit-exactly; truncation and corruption are
// detected with byte-offset diagnostics.
//
// Structure is not stored — loading requires a network with an identical
// parameter list, which the searchspace builder regenerates
// deterministically from an architecture encoding.
#pragma once

#include <iosfwd>
#include <string>

#include "nn/graph.hpp"

namespace geonas::nn {

/// Round-trips NaN/inf bit-exactly. Loading throws std::runtime_error
/// when the stream is not a weights file or the network's parameter list
/// differs.
void save_weights_binary(GraphNetwork& net, std::ostream& os);
void load_weights_binary(GraphNetwork& net, std::istream& is);

/// File-path conveniences; throw std::runtime_error on I/O failure.
/// Saving is atomic (write to a temporary, then rename).
void save_weights_file(GraphNetwork& net, const std::string& path);
void load_weights_file(GraphNetwork& net, const std::string& path);

}  // namespace geonas::nn
