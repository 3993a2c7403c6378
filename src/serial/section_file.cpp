#include "src/serial/section_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/common/error.hpp"
#include "src/serial/crc32.hpp"

namespace splitmed {

namespace {

constexpr char kMagic[] = "SMCKPT02";
constexpr std::size_t kMagicLen = 8;
constexpr std::size_t kVersionDigits = 2;  // trailing "02" of the magic
constexpr std::uint32_t kMaxSections = 65536;
constexpr std::uint32_t kMaxNameLen = 4096;

[[noreturn]] void throw_io(const std::string& what, const std::string& path) {
  throw Error("checkpoint: " + what + " '" + path +
              "': " + std::strerror(errno));
}

void fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw_io("cannot open directory of", path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw_io("cannot fsync directory of", path);
}

}  // namespace

void atomic_write_file(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_io("cannot open temp file", tmp);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw_io("write failed on temp file", tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw_io("fsync failed on temp file", tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw_io("cannot publish (rename) checkpoint file", path);
  }
  fsync_parent_dir(path);
}

void SectionFileWriter::add(std::string name,
                            std::vector<std::uint8_t> payload) {
  SPLITMED_CHECK(!name.empty(), "checkpoint section name must be non-empty");
  for (const Section& s : sections_) {
    SPLITMED_CHECK(s.name != name,
                   "duplicate checkpoint section '" << name << "'");
  }
  sections_.push_back(Section{std::move(name), std::move(payload)});
}

std::vector<std::uint8_t> SectionFileWriter::encode() const {
  BufferWriter w;
  for (std::size_t i = 0; i < kMagicLen; ++i) {
    w.write_u8(static_cast<std::uint8_t>(kMagic[i]));
  }
  w.write_u32(static_cast<std::uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    // The CRC trailer covers the whole section record (name length, name,
    // payload length, payload), so a bit flip anywhere in a section — header
    // included — fails verification at load time.
    const std::size_t record_begin = w.size();
    w.write_string(s.name);
    w.write_u64(s.payload.size());
    w.write_bytes({s.payload.data(), s.payload.size()});
    const std::uint32_t crc =
        crc32(std::span(w.bytes()).subspan(record_begin));
    w.write_u32(crc);
  }
  return w.take();
}

void SectionFileWriter::write_file(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = encode();
  atomic_write_file(path, {bytes.data(), bytes.size()});
}

SectionFileReader SectionFileReader::decode(std::span<const std::uint8_t> bytes,
                                            const std::string& context) {
  SectionFileReader out;
  out.context_ = context;
  BufferReader r(bytes);
  if (r.remaining() < kMagicLen) {
    throw SerializationError("checkpoint " + context +
                             ": file too short for magic");
  }
  bool prefix_ok = true;
  for (std::size_t i = 0; i < kMagicLen - kVersionDigits; ++i) {
    if (r.read_u8() != static_cast<std::uint8_t>(kMagic[i])) prefix_ok = false;
  }
  bool version_ok = true;
  for (std::size_t i = kMagicLen - kVersionDigits; i < kMagicLen; ++i) {
    if (r.read_u8() != static_cast<std::uint8_t>(kMagic[i])) version_ok = false;
  }
  if (!prefix_ok) {
    throw SerializationError("checkpoint " + context +
                             ": bad magic (not an SMCKPT file)");
  }
  if (!version_ok) {
    throw SerializationError("checkpoint " + context +
                             ": unsupported checkpoint version (expected " +
                             std::string(kMagic) + ")");
  }
  const std::uint32_t count = r.read_u32();
  if (count > kMaxSections) {
    throw SerializationError("checkpoint " + context +
                             ": absurd section count " + std::to_string(count));
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t record_begin = r.pos();
    const std::uint32_t name_len = r.read_u32();
    if (name_len == 0 || name_len > kMaxNameLen) {
      throw SerializationError("checkpoint " + context +
                               ": invalid section name length " +
                               std::to_string(name_len));
    }
    if (r.remaining() < name_len) {
      throw SerializationError("checkpoint " + context +
                               ": truncated inside a section name");
    }
    std::string name(reinterpret_cast<const char*>(bytes.data() + r.pos()),
                     name_len);
    r.skip(name_len);
    const std::uint64_t payload_len = r.read_u64();
    // Validate the declared length against what is actually left BEFORE
    // allocating — a lying length field must not drive an allocation.
    if (payload_len > r.remaining() ||
        r.remaining() - payload_len < 4 /* CRC trailer */) {
      throw SerializationError(
          "checkpoint " + context + ": section '" + name + "' claims " +
          std::to_string(payload_len) + " payload bytes, only " +
          std::to_string(r.remaining()) + " remain");
    }
    std::vector<std::uint8_t> payload(
        bytes.begin() + static_cast<std::ptrdiff_t>(r.pos()),
        bytes.begin() +
            static_cast<std::ptrdiff_t>(r.pos() + payload_len));
    r.skip(static_cast<std::size_t>(payload_len));
    const std::size_t record_end = r.pos();
    const std::uint32_t stored_crc = r.read_u32();
    const std::uint32_t actual_crc = crc32(
        bytes.subspan(record_begin, record_end - record_begin));
    if (stored_crc != actual_crc) {
      throw SerializationError("checkpoint " + context + ": section '" + name +
                               "' failed its CRC-32 check (stored " +
                               std::to_string(stored_crc) + ", computed " +
                               std::to_string(actual_crc) + ")");
    }
    for (const Section& s : out.sections_) {
      if (s.name == name) {
        throw SerializationError("checkpoint " + context +
                                 ": duplicate section '" + name + "'");
      }
    }
    out.sections_.push_back(Section{std::move(name), std::move(payload)});
  }
  if (!r.exhausted()) {
    throw SerializationError("checkpoint " + context + ": " +
                             std::to_string(r.remaining()) +
                             " trailing bytes after the last section");
  }
  return out;
}

SectionFileReader SectionFileReader::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("checkpoint: cannot open '" + path + "'");
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return decode({bytes.data(), bytes.size()}, "'" + path + "'");
}

bool SectionFileReader::has(const std::string& name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

const std::vector<std::uint8_t>& SectionFileReader::payload(
    const std::string& name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return s.payload;
  }
  throw SerializationError("checkpoint " + context_ + ": missing section '" +
                           name + "'");
}

BufferReader SectionFileReader::reader(const std::string& name) const {
  const auto& p = payload(name);
  return BufferReader({p.data(), p.size()});
}

}  // namespace splitmed
