#include "data/idx_loader.hpp"

#include <cstdint>
#include <fstream>
#include <stdexcept>

namespace fedguard::data {

namespace {

// IDX is unsigned bytes; iostreams read char, so widen through unsigned char.
std::uint32_t byte_at(const char* bytes, std::size_t i) {
  return static_cast<unsigned char>(bytes[i]);
}

std::uint32_t read_be_u32(std::istream& in) {
  char bytes[4];
  if (!in.read(bytes, sizeof(bytes))) throw std::runtime_error{"idx: truncated header"};
  return (byte_at(bytes, 0) << 24) | (byte_at(bytes, 1) << 16) | (byte_at(bytes, 2) << 8) |
         byte_at(bytes, 3);
}

constexpr std::uint32_t kImagesMagic = 0x00000803;
constexpr std::uint32_t kLabelsMagic = 0x00000801;

}  // namespace

Dataset load_idx_dataset(const std::string& images_path, const std::string& labels_path,
                         std::size_t num_classes) {
  std::ifstream images_file{images_path, std::ios::binary};
  if (!images_file) throw std::runtime_error{"idx: cannot open " + images_path};
  std::ifstream labels_file{labels_path, std::ios::binary};
  if (!labels_file) throw std::runtime_error{"idx: cannot open " + labels_path};

  if (read_be_u32(images_file) != kImagesMagic) {
    throw std::runtime_error{"idx: bad images magic in " + images_path};
  }
  const std::uint32_t image_count = read_be_u32(images_file);
  const std::uint32_t rows = read_be_u32(images_file);
  const std::uint32_t cols = read_be_u32(images_file);

  if (read_be_u32(labels_file) != kLabelsMagic) {
    throw std::runtime_error{"idx: bad labels magic in " + labels_path};
  }
  const std::uint32_t label_count = read_be_u32(labels_file);
  if (image_count != label_count) {
    throw std::runtime_error{"idx: image/label count mismatch"};
  }

  const std::size_t pixels = static_cast<std::size_t>(rows) * cols;
  tensor::Tensor images{{image_count, 1, rows, cols}};
  std::vector<char> row_buffer(pixels);
  for (std::size_t n = 0; n < image_count; ++n) {
    if (!images_file.read(row_buffer.data(), static_cast<std::streamsize>(pixels))) {
      throw std::runtime_error{"idx: truncated image data"};
    }
    float* dst = images.raw() + n * pixels;
    for (std::size_t i = 0; i < pixels; ++i) {
      dst[i] = static_cast<float>(byte_at(row_buffer.data(), i)) / 255.0f;
    }
  }

  std::vector<int> labels(image_count);
  std::vector<char> label_buffer(image_count);
  if (!labels_file.read(label_buffer.data(), static_cast<std::streamsize>(image_count))) {
    throw std::runtime_error{"idx: truncated label data"};
  }
  for (std::size_t i = 0; i < image_count; ++i) {
    labels[i] = static_cast<int>(byte_at(label_buffer.data(), i));
  }

  return Dataset{std::move(images), std::move(labels), num_classes};
}

bool idx_dataset_available(const std::string& images_path, const std::string& labels_path) {
  std::ifstream images_file{images_path, std::ios::binary};
  std::ifstream labels_file{labels_path, std::ios::binary};
  if (!images_file || !labels_file) return false;
  try {
    return read_be_u32(images_file) == kImagesMagic &&
           read_be_u32(labels_file) == kLabelsMagic;
  } catch (const std::runtime_error&) {
    return false;
  }
}

}  // namespace fedguard::data
