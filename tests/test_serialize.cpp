#include "util/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "util/csv.hpp"

namespace fedguard::util {
namespace {

TEST(Serialize, RoundTripScalars) {
  ByteWriter writer;
  writer.write_u32(0xdeadbeefu);
  writer.write_u64(0x0123456789abcdefULL);
  writer.write_f32(3.25f);
  writer.write_string("hello");

  ByteReader reader{writer.bytes()};
  EXPECT_EQ(reader.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.read_u64(), 0x0123456789abcdefULL);
  EXPECT_FLOAT_EQ(reader.read_f32(), 3.25f);
  EXPECT_EQ(reader.read_string(), "hello");
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serialize, RoundTripFloatSpan) {
  const std::vector<float> values{1.0f, -2.5f, 3.75f, 0.0f};
  ByteWriter writer;
  writer.write_f32_span(values);
  EXPECT_EQ(writer.size(), f32_vector_wire_size(values.size()));

  ByteReader reader{writer.bytes()};
  const auto count = reader.read_u64();
  EXPECT_EQ(count, values.size());
  EXPECT_EQ(reader.read_f32_vector(count), values);
}

TEST(Serialize, ReaderUnderrunThrows) {
  ByteWriter writer;
  writer.write_u32(1);
  ByteReader reader{writer.bytes()};
  (void)reader.read_u32();
  EXPECT_THROW((void)reader.read_u64(), std::out_of_range);
}

TEST(Serialize, WrappedStringLengthIsAnUnderrun) {
  // At offset 48, a length of 2^64 - 41 makes offset + length wrap to 7,
  // which is inside the buffer; the reader must still refuse it.
  ByteWriter writer;
  for (int i = 0; i < 6; ++i) writer.write_u64(0);
  writer.write_u64(~0ULL - 40);
  writer.write_u64(0);
  ByteReader reader{writer.bytes()};
  for (int i = 0; i < 6; ++i) (void)reader.read_u64();
  EXPECT_THROW((void)reader.read_string(), std::out_of_range);
}

TEST(Serialize, WrappedFloatCountIsAnUnderrun) {
  // 2^62 + 1 floats is 2^64 + 4 bytes: the byte count wraps to 4, which
  // the buffer holds.
  ByteWriter writer;
  writer.write_f32(1.0f);
  writer.write_f32(2.0f);
  ByteReader reader{writer.bytes()};
  EXPECT_THROW((void)reader.read_f32_vector((std::size_t{1} << 62) + 1), std::out_of_range);
  EXPECT_THROW((void)reader.read_f32_vector(~std::size_t{0}), std::out_of_range);
  EXPECT_EQ(reader.read_f32_vector(2), (std::vector<float>{1.0f, 2.0f}));
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = std::filesystem::temp_directory_path() / "fedguard_vec_test.bin";
  const std::vector<float> values{0.5f, 1.5f, -2.0f};
  save_f32_vector(path, values);
  EXPECT_EQ(load_f32_vector(path), values);
  std::remove(path.c_str());
}

TEST(Serialize, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_f32_vector("/nonexistent/path/vec.bin"), std::runtime_error);
}

TEST(Csv, EscapeRules) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WriterProducesHeaderAndRows) {
  const std::string path = std::filesystem::temp_directory_path() / "fedguard_csv_test.csv";
  {
    CsvWriter csv{path, {"a", "b"}};
    csv.write_row({"1", "x,y"});
  }
  std::ifstream file{path};
  std::string line;
  std::getline(file, line);
  EXPECT_EQ(line, "a,b");
  std::getline(file, line);
  EXPECT_EQ(line, "1,\"x,y\"");
  std::remove(path.c_str());
}

TEST(Csv, RowWidthMismatchThrows) {
  const std::string path = std::filesystem::temp_directory_path() / "fedguard_csv_test2.csv";
  CsvWriter csv{path, {"a", "b"}};
  EXPECT_THROW(csv.write_row({"only_one"}), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Csv, NumericCells) {
  EXPECT_EQ(CsvWriter::cell(std::size_t{42}), "42");
  EXPECT_EQ(CsvWriter::cell(-7), "-7");
  EXPECT_EQ(CsvWriter::cell(0.5), "0.5");
}

}  // namespace
}  // namespace fedguard::util
