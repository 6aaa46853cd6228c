#include "obs/trace_reader.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "obs/export.h"

namespace wsn::obs {

namespace fs = std::filesystem;

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

TraceReader::TraceReader(const std::string& path) {
  std::error_code ec;
  const fs::file_status st = fs::status(path, ec);
  if (ec || !fs::exists(st)) {
    throw std::runtime_error("cannot open " + path);
  }
  if (fs::is_directory(st)) {
    std::vector<std::string> wtr_names;
    std::vector<std::string> jsonl_names;
    for (const fs::directory_entry& entry : fs::directory_iterator(path)) {
      const std::string name = entry.path().filename().string();
      if (starts_with(name, "trace.wtr.")) wtr_names.push_back(name);
      if (starts_with(name, "trace.jsonl.")) jsonl_names.push_back(name);
    }
    if (!wtr_names.empty() && !jsonl_names.empty()) {
      throw std::runtime_error(path +
                               ": holds both wtr and jsonl segments; "
                               "point at one capture");
    }
    wtr_ = !wtr_names.empty();
    std::vector<std::string>& names = wtr_ ? wtr_names : jsonl_names;
    if (names.empty()) {
      throw std::runtime_error("no trace segments in " + path);
    }
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      paths_.push_back(path + "/" + name);
    }
  } else {
    // A bare file: sniff the wtr magic, otherwise treat it as JSONL.
    std::ifstream probe(path, std::ios::binary);
    char magic[4] = {};
    probe.read(magic, sizeof magic);
    wtr_ = probe.gcount() == sizeof magic &&
           std::memcmp(magic, wtr::kMagic, sizeof magic) == 0;
    paths_.push_back(path);
  }
}

bool TraceReader::next(TraceEvent& ev) {
  return wtr_ ? next_wtr(ev) : next_jsonl(ev);
}

void TraceReader::finish_segment() {
  SegmentSummary s;
  s.path = seg_->path();
  s.events = seg_->events_read();
  s.bytes = seg_->bytes_read();
  s.complete = seg_->end() == wtr::SegmentEnd::kClean;
  if (!s.complete) {
    findings_.push_back(seg_->finding());
  } else if (paths_.size() > 1 &&
             seg_->segment_index() != path_index_ - 1) {
    // Header indices are written sequentially, so a mismatch means a
    // renamed or missing segment file.
    s.complete = false;
    findings_.push_back(s.path + ": header says segment " +
                        std::to_string(seg_->segment_index()) +
                        ", expected segment " +
                        std::to_string(path_index_ - 1));
  }
  summaries_.push_back(std::move(s));
  seg_.reset();
}

bool TraceReader::next_wtr(TraceEvent& ev) {
  while (true) {
    if (seg_ == nullptr) {
      if (path_index_ >= paths_.size()) return false;
      seg_ = std::make_unique<wtr::SegmentReader>(paths_[path_index_++]);
    }
    if (seg_->next(ev)) {
      ++events_read_;
      return true;
    }
    finish_segment();
  }
}

void TraceReader::open_jsonl(const std::string& path) {
  in_.open(path, std::ios::binary);
  if (!in_.is_open()) {
    throw std::runtime_error("cannot open " + path);
  }
  lineno_ = 0;
  file_events_ = 0;
  file_complete_ = true;
}

bool TraceReader::next_jsonl(TraceEvent& ev) {
  while (true) {
    if (!in_.is_open()) {
      if (path_index_ >= paths_.size()) return false;
      open_jsonl(paths_[path_index_++]);
    }
    const std::string& path = paths_[path_index_ - 1];
    while (file_complete_ && std::getline(in_, line_)) {
      ++lineno_;
      if (line_.empty()) continue;
      try {
        ev = parse_jsonl_line(line_, lineno_);
      } catch (const VocabularyError& e) {
        throw std::runtime_error(path + ": " + e.what());
      } catch (const std::runtime_error& e) {
        if (in_.peek() == std::ifstream::traits_type::eof()) {
          // A bad final line is an unflushed tail, not a malformed trace:
          // everything before it is still a valid capture prefix.
          file_complete_ = false;
          findings_.push_back(path + ": truncated final record at line " +
                              std::to_string(lineno_));
          break;
        }
        throw std::runtime_error(path + ": " + e.what());
      }
      ++file_events_;
      ++events_read_;
      return true;
    }
    SegmentSummary s;
    s.path = path;
    s.events = file_events_;
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    s.bytes = ec ? 0 : static_cast<std::uint64_t>(size);
    s.complete = file_complete_;
    summaries_.push_back(std::move(s));
    in_.close();
    in_.clear();
  }
}

}  // namespace wsn::obs
