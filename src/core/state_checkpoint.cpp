#include "core/state_checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/error.hpp"

namespace zero::core {

namespace {

constexpr std::uint64_t kMagic = 0x5A45524F434B5054ull;  // "ZEROCKPT"
// v2 extends the header with the dynamic loss scaler's full control
// loop; v1 checkpoints (40-byte header) still load with those fields
// defaulted to a freshly-backed-off scaler.
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kV1HeaderBytes = 40;

struct Header {
  std::uint64_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint32_t reserved = 0;
  std::int64_t total_numel = 0;
  std::int64_t step_count = 0;
  float loss_scale = 1.0f;
  float pad = 0.0f;
  // --- v2 fields (absent from v1 files) ---
  std::int32_t scaler_steps_since_backoff = 0;
  std::int32_t pad2 = 0;
  std::int64_t scaler_skipped = 0;
  std::int64_t scaler_good = 0;
};
static_assert(sizeof(Header) == 64, "header layout must stay stable");
static_assert(offsetof(Header, scaler_steps_since_backoff) == kV1HeaderBytes,
              "v2 fields must start exactly where the v1 header ended");

}  // namespace

std::vector<std::byte> TrainingState::Serialize() const {
  ZERO_CHECK(master.size() == static_cast<std::size_t>(total_numel) &&
                 momentum.size() == master.size() &&
                 variance.size() == master.size(),
             "inconsistent state array sizes");
  Header header;
  header.total_numel = total_numel;
  header.step_count = step_count;
  header.loss_scale = loss_scale;
  header.scaler_steps_since_backoff = scaler_steps_since_backoff;
  header.scaler_skipped = scaler_skipped;
  header.scaler_good = scaler_good;

  const std::size_t array_bytes = master.size() * sizeof(float);
  std::vector<std::byte> out(sizeof(Header) + 3 * array_bytes);
  std::byte* p = out.data();
  std::memcpy(p, &header, sizeof(Header));
  p += sizeof(Header);
  // An empty state's arrays have a null data(), which memcpy must not
  // be handed even for zero bytes.
  for (const std::vector<float>* a : {&master, &momentum, &variance}) {
    if (!a->empty()) std::memcpy(p, a->data(), array_bytes);
    p += array_bytes;
  }
  return out;
}

TrainingState TrainingState::Deserialize(std::span<const std::byte> bytes) {
  ZERO_CHECK(bytes.size() >= kV1HeaderBytes, "checkpoint truncated");
  Header header;
  std::memcpy(&header, bytes.data(), kV1HeaderBytes);
  ZERO_CHECK(header.magic == kMagic, "not a ZeRO checkpoint");
  ZERO_CHECK(header.version == 1 || header.version == kVersion,
             "unsupported checkpoint version");
  ZERO_CHECK(header.total_numel >= 0, "corrupt checkpoint header");
  const std::size_t header_bytes =
      header.version == 1 ? kV1HeaderBytes : sizeof(Header);
  ZERO_CHECK(bytes.size() >= header_bytes, "checkpoint truncated");
  if (header.version == kVersion) {
    std::memcpy(&header, bytes.data(), sizeof(Header));
  }

  // Compare in the payload's terms: a total_numel whose three arrays
  // would overflow size_t can then never wrap into a false match.
  const std::size_t payload = bytes.size() - header_bytes;
  constexpr std::size_t kElemBytes = 3 * sizeof(float);
  ZERO_CHECK(payload % kElemBytes == 0 &&
                 payload / kElemBytes ==
                     static_cast<std::uint64_t>(header.total_numel),
             "checkpoint size does not match its header");
  const std::size_t array_bytes = payload / 3;

  TrainingState state;
  state.total_numel = header.total_numel;
  state.step_count = header.step_count;
  state.loss_scale = header.loss_scale;
  state.scaler_steps_since_backoff = header.scaler_steps_since_backoff;
  state.scaler_skipped = header.scaler_skipped;
  state.scaler_good = header.scaler_good;
  state.master.resize(static_cast<std::size_t>(header.total_numel));
  state.momentum.resize(state.master.size());
  state.variance.resize(state.master.size());
  const std::byte* p = bytes.data() + header_bytes;
  for (std::vector<float>* a : {&state.master, &state.momentum,
                                &state.variance}) {
    if (!a->empty()) std::memcpy(a->data(), p, array_bytes);
    p += array_bytes;
  }
  return state;
}

void TrainingState::SaveToFile(const std::string& path) const {
  const std::vector<std::byte> bytes = Serialize();
  const std::string tmp = path + ".tmp";
  // Reads errno first, then removes the partial temp file; the file at
  // `path` is never touched before the rename.
  const auto fail = [&](const char* what, int fd) {
    const std::string reason = std::strerror(errno);
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    throw Error("checkpoint save to " + path + " failed: " + what + " " +
                tmp + ": " + reason);
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) fail("cannot open", fd);
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) fail("cannot write", fd);
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) fail("cannot fsync", fd);
  if (::close(fd) != 0) fail("cannot close", -1);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) fail("cannot rename", -1);
}

TrainingState TrainingState::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  ZERO_CHECK(in.good(), "cannot open checkpoint file: " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  ZERO_CHECK(in.good(), "checkpoint read failed: " + path);
  return Deserialize(bytes);
}

}  // namespace zero::core
