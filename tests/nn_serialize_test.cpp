// Weight serialization: binary v2 round trips (incl. non-finite values),
// corruption and mismatch diagnostics, and file-level loading that refuses
// anything but the binary format by name.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "nn/serialize.hpp"
#include "tensor/random.hpp"

namespace geonas::nn {
namespace {

GraphNetwork small_net() {
  GraphNetwork net;
  const auto l1 = net.add_node(std::make_unique<LSTM>(2, 4),
                               {GraphNetwork::input_id()});
  net.add_node(std::make_unique<Dense>(4, 2), {l1});
  return net;
}

void poison_first_param(GraphNetwork& net) {
  auto params = net.parameters();
  params[1]->flat()[0] = std::numeric_limits<double>::quiet_NaN();
  params[1]->flat()[1] = std::numeric_limits<double>::infinity();
}

TEST(SerializeBinary, RoundTripIsBitwise) {
  GraphNetwork net = small_net();
  net.init_params(21);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights_binary(net, buffer);

  GraphNetwork other = small_net();
  other.init_params(99);
  load_weights_binary(other, buffer);
  const auto a = net.parameters();
  const auto b = other.parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    const auto fa = a[p]->flat();
    const auto fb = b[p]->flat();
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fa[i]),
                std::bit_cast<std::uint64_t>(fb[i]));
    }
  }
}

TEST(SerializeBinary, NonFiniteWeightsRoundTrip) {
  // A diverged training's NaN/inf weights must survive save/load — the
  // structural fix the text format cannot provide.
  GraphNetwork net = small_net();
  net.init_params(22);
  poison_first_param(net);

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights_binary(net, buffer);
  GraphNetwork other = small_net();
  other.init_params(23);
  load_weights_binary(other, buffer);
  const auto flat = other.parameters()[1]->flat();
  EXPECT_TRUE(std::isnan(flat[0]));
  EXPECT_EQ(flat[1], std::numeric_limits<double>::infinity());
}

TEST(SerializeBinary, DetectsTruncationAndCorruption) {
  GraphNetwork net = small_net();
  net.init_params(24);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights_binary(net, buffer);
  const std::string bytes = buffer.str();

  std::string truncated = bytes.substr(0, bytes.size() / 2);
  std::istringstream ts(truncated, std::ios::binary);
  GraphNetwork other = small_net();
  EXPECT_THROW(load_weights_binary(other, ts), std::runtime_error);

  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x10;
  std::istringstream cs(corrupt, std::ios::binary);
  GraphNetwork other2 = small_net();
  EXPECT_THROW(load_weights_binary(other2, cs), std::runtime_error);
}

TEST(SerializeBinary, RejectsMismatchedNetwork) {
  GraphNetwork net = small_net();
  net.init_params(25);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights_binary(net, buffer);

  GraphNetwork different;
  different.add_node(std::make_unique<Dense>(1, 1),
                     {GraphNetwork::input_id()});
  try {
    load_weights_binary(different, buffer);
    FAIL() << "weights loaded into a network with another parameter list";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("parameter count mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(SerializeFile, AutoDetectsBothFormats) {
  // The binary format loads; a legacy text v1 file (no longer read) and a
  // garbage file are refused with an error naming the file.
  const std::string bin_path = ::testing::TempDir() + "/serialize_v2.bin";
  const std::string txt_path = ::testing::TempDir() + "/serialize_v1.txt";
  const std::string junk_path = ::testing::TempDir() + "/serialize_junk.bin";
  GraphNetwork net = small_net();
  net.init_params(28);
  Rng rng(29);
  Tensor3 x(2, 3, 2);
  for (std::size_t i = 0; i < x.size(); ++i) x.flat()[i] = rng.normal();
  const Tensor3 expected = net.forward(x, false);

  save_weights_file(net, bin_path);
  GraphNetwork other = small_net();
  other.init_params(999);
  load_weights_file(other, bin_path);
  const Tensor3 out = other.forward(x, false);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.flat()[i]),
              std::bit_cast<std::uint64_t>(expected.flat()[i]));
  }

  std::ofstream(txt_path) << "geonas-weights-v1\n4\n";
  std::ofstream(junk_path) << "not-a-weights-file 0";
  for (const std::string& path : {txt_path, junk_path}) {
    GraphNetwork target = small_net();
    try {
      load_weights_file(target, path);
      FAIL() << path << " loaded";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
    }
  }
  std::remove(bin_path.c_str());
  std::remove(txt_path.c_str());
  std::remove(junk_path.c_str());
}

}  // namespace
}  // namespace geonas::nn
