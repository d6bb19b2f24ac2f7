//===- tests/test_stream.cpp - Access-stream and trace capture/replay ------===//
//
// Part of the StrideProf project test suite.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stream layer's contract: trace files round-trip every event bit for
/// bit (binary and text, including the ring-boundary batch sizes), read
/// errors come back as precise TraceError codes, the synthetic generators
/// are deterministic, and -- the load-bearing guarantee -- replaying a
/// capture of a live profile run reproduces the stride profile, classifier
/// verdicts, timed-run accounting, and attribution counters bit-identically
/// to the run that produced it, for every profiling method on both engines.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "driver/TraceReplay.h"
#include "instrument/Instrumentation.h"
#include "interp/Interpreter.h"
#include "obs/Report.h"
#include "profile/ProfileData.h"
#include "profile/ProfileStore.h"
#include "profile/StrideProfiler.h"
#include "stream/AccessStream.h"
#include "stream/InterpreterSource.h"
#include "stream/SyntheticTrace.h"
#include "stream/TraceFile.h"
#include "support/Random.h"
#include "workloads/TraceWorkload.h"
#include "workloads/Workload.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace sprof;

namespace {

PipelineConfig engineConfig(InterpreterConfig::Engine E) {
  PipelineConfig C;
  C.Interp.Exec = E;
  return C;
}

std::string tmpPath(const std::string &Name) {
  return ::testing::TempDir() + Name;
}

/// Pulls a source dry with a batch size that is coprime to the writer's
/// internal batching, so reader batches straddle writer batches.
std::vector<AccessEvent> drainAll(AccessSource &Src) {
  std::vector<AccessEvent> Out;
  AccessEvent Buf[97];
  while (size_t N = Src.pull(Buf, 97))
    Out.insert(Out.end(), Buf, Buf + N);
  return Out;
}

void expectSameEvents(const std::vector<AccessEvent> &Want,
                      const std::vector<AccessEvent> &Got) {
  ASSERT_EQ(Want.size(), Got.size());
  for (size_t I = 0; I != Want.size(); ++I) {
    SCOPED_TRACE("event " + std::to_string(I));
    EXPECT_EQ(Want[I].Address, Got[I].Address);
    EXPECT_EQ(Want[I].GlobalRefIndex, Got[I].GlobalRefIndex);
    EXPECT_EQ(Want[I].SiteId, Got[I].SiteId);
    EXPECT_EQ(Want[I].Kind, Got[I].Kind);
  }
}

/// A delta-encoder stress pattern: several interleaved sites, forward and
/// backward address deltas, occasional unknown ref indices, and a
/// prefetch-kind event every 16th entry.
std::vector<AccessEvent> patternEvents(size_t N) {
  std::vector<AccessEvent> Events;
  Events.reserve(N);
  uint64_t Addr = 0x100000;
  for (size_t I = 0; I != N; ++I) {
    AccessEvent E;
    Addr = I % 3 == 0 ? Addr - 48 : Addr + 64;
    E.Address = Addr;
    E.GlobalRefIndex = I % 11 == 0 ? 0 : I + 1;
    E.SiteId = static_cast<uint32_t>(I % 5);
    E.Kind = I % 16 == 9 ? AccessKind::Prefetch : AccessKind::Load;
    Events.push_back(E);
  }
  return Events;
}

/// Writes \p Events through a string-backed TraceWriter and decodes them
/// back, checking header and footer metadata along the way.
std::vector<AccessEvent> roundTrip(const std::vector<AccessEvent> &Events,
                                   uint32_t NumSites, bool Text) {
  std::stringstream SS;
  const TraceProvenance Prov{"unit.workload", "train", "edge-check"};
  {
    TraceWriter W(SS, NumSites, Prov, Text);
    W.onBatch(Events.data(), Events.size());
    W.finish();
    EXPECT_TRUE(W.ok()) << W.error();
    EXPECT_EQ(W.eventsWritten(), Events.size());
    EXPECT_GT(W.bytesWritten(), 0u);
  }
  TraceReader R(SS);
  EXPECT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R.text(), Text);
  EXPECT_EQ(R.version(), Text ? 1u : TraceFormatVersion);
  EXPECT_EQ(R.numSites(), NumSites);
  EXPECT_EQ(R.provenance().Workload, Prov.Workload);
  EXPECT_EQ(R.provenance().DataSet, Prov.DataSet);
  EXPECT_EQ(R.provenance().Method, Prov.Method);
  std::vector<AccessEvent> Out = drainAll(R);
  EXPECT_TRUE(R.ok()) << R.error();
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(R.eventCount(), Events.size());
  return Out;
}

/// Every RunStats field, so a replay divergence names the broken bucket.
void expectSameStats(const RunStats &Live, const RunStats &Replayed) {
  EXPECT_EQ(Live.Completed, Replayed.Completed);
  EXPECT_EQ(Live.Instructions, Replayed.Instructions);
  EXPECT_EQ(Live.Cycles, Replayed.Cycles);
  EXPECT_EQ(Live.BaseCycles, Replayed.BaseCycles);
  EXPECT_EQ(Live.MemStallCycles, Replayed.MemStallCycles);
  EXPECT_EQ(Live.InstrumentationCycles, Replayed.InstrumentationCycles);
  EXPECT_EQ(Live.RuntimeCycles, Replayed.RuntimeCycles);
  EXPECT_EQ(Live.LoadRefs, Replayed.LoadRefs);
  EXPECT_EQ(Live.SiteCounts, Replayed.SiteCounts);
  EXPECT_EQ(Live.ExitValue, Replayed.ExitValue);
  ASSERT_EQ(Live.Mem.Levels.size(), Replayed.Mem.Levels.size());
  for (size_t L = 0; L != Live.Mem.Levels.size(); ++L) {
    EXPECT_EQ(Live.Mem.Levels[L].Hits, Replayed.Mem.Levels[L].Hits);
    EXPECT_EQ(Live.Mem.Levels[L].Misses, Replayed.Mem.Levels[L].Misses);
  }
  EXPECT_EQ(Live.Mem.DemandAccesses, Replayed.Mem.DemandAccesses);
  EXPECT_EQ(Live.Mem.PrefetchesIssued, Replayed.Mem.PrefetchesIssued);
}

} // namespace

//===----------------------------------------------------------------------===//
// Trace-file round-trips
//===----------------------------------------------------------------------===//

TEST(TraceFile, EmptyRoundTrip) {
  for (bool Text : {false, true}) {
    SCOPED_TRACE(Text ? "text" : "binary");
    expectSameEvents({}, roundTrip({}, 4, Text));
  }
}

TEST(TraceFile, SingleEventRoundTrip) {
  AccessEvent E;
  E.Address = 0xdeadbeef12345678ull;
  E.GlobalRefIndex = 42;
  E.SiteId = 7;
  E.Kind = AccessKind::Prefetch;
  for (bool Text : {false, true}) {
    SCOPED_TRACE(Text ? "text" : "binary");
    expectSameEvents({E}, roundTrip({E}, 8, Text));
  }
}

// The sizes that straddle the engines' stride-event ring (and the writer's
// internal batch): one below, exactly at, one above the default 256 window.
TEST(TraceFile, RingBoundaryRoundTrip) {
  for (size_t N : {size_t(255), size_t(256), size_t(257), size_t(1000)}) {
    const std::vector<AccessEvent> Events = patternEvents(N);
    for (bool Text : {false, true}) {
      SCOPED_TRACE((Text ? "text/" : "binary/") + std::to_string(N));
      expectSameEvents(Events, roundTrip(Events, 5, Text));
    }
  }
}

TEST(TraceFile, EdgeSectionRoundTrip) {
  EdgeProfile EP(2);
  EP.setEntryCount(0, 3);
  EP.setEntryCount(1, 41);
  EP.setFrequency(0, Edge{0, 0}, 17);
  EP.setFrequency(0, Edge{2, 1}, 0);
  EP.setFrequency(1, Edge{1, 0}, 9);
  const TraceEdgeSection S = edgeSectionFromProfile(EP);

  for (bool Text : {false, true}) {
    SCOPED_TRACE(Text ? "text" : "binary");
    std::stringstream SS;
    {
      TraceWriter W(SS, 1, {}, Text);
      W.setEdgeSection(S);
      AccessEvent E;
      E.Address = 0x2000;
      W.onBatch(&E, 1);
      W.finish();
      ASSERT_TRUE(W.ok()) << W.error();
    }
    TraceReader R(SS);
    AccessEvent Buf[8];
    EXPECT_EQ(R.pull(Buf, 8), 1u);
    EXPECT_EQ(R.pull(Buf, 8), 0u);
    ASSERT_TRUE(R.ok()) << R.error();
    ASSERT_TRUE(R.edgeSection().Present);
    const EdgeProfile Back = edgeProfileFromSection(R.edgeSection());
    EXPECT_EQ(edgeProfileToJson(Back).str(), edgeProfileToJson(EP).str());
  }
}

TEST(TraceFile, FileBackedResetReplaysTheStream) {
  const std::string Path = tmpPath("reset.sprof.trace");
  const std::vector<AccessEvent> Events = patternEvents(300);
  {
    std::string Err;
    auto W = TraceWriter::open(Path, 5, {}, /*Text=*/false, &Err);
    ASSERT_NE(W, nullptr) << Err;
    W->onBatch(Events.data(), Events.size());
    W->finish();
    ASSERT_TRUE(W->ok()) << W->error();
  }
  auto R = TraceReader::openFile(Path);
  ASSERT_TRUE(R->ok()) << R->error();
  expectSameEvents(Events, drainAll(*R));
  ASSERT_TRUE(R->reset());
  expectSameEvents(Events, drainAll(*R));
  EXPECT_TRUE(R->ok()) << R->error();
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// The /2 shard index: seekable open and independent chunk decode
//===----------------------------------------------------------------------===//

TEST(TraceFile, ShardIndexRoundTripAndShardDecode) {
  const std::string Path = tmpPath("indexed.sprof.trace");
  const std::vector<AccessEvent> Events = patternEvents(1000);
  size_t Loads = 0;
  for (const AccessEvent &E : Events)
    Loads += E.Kind == AccessKind::Load;
  {
    std::string Err;
    auto W = TraceWriter::open(Path, 5, {}, /*Text=*/false, &Err,
                               /*IndexInterval=*/64);
    ASSERT_NE(W, nullptr) << Err;
    EXPECT_EQ(W->version(), 2u);
    EXPECT_STREQ(W->schema(), TraceSchemaV2);
    W->onBatch(Events.data(), Events.size());
    W->finish();
    ASSERT_TRUE(W->ok()) << W->error();
  }

  // Sequential decode still works and sees the index once the footer is in.
  {
    auto R = TraceReader::openFile(Path);
    ASSERT_TRUE(R->ok()) << R->error();
    expectSameEvents(Events, drainAll(*R));
    ASSERT_TRUE(R->ok()) << R->error();
    EXPECT_TRUE(R->index().Present);
  }

  // Indexed open reaches the footer without decoding any event.
  auto R = TraceReader::openFileIndexed(Path);
  ASSERT_TRUE(R->ok()) << R->error();
  EXPECT_TRUE(R->atEnd());
  const TraceShardIndex &Idx = R->index();
  ASSERT_TRUE(Idx.Present);
  EXPECT_EQ(Idx.Interval, 64u);
  EXPECT_EQ(Idx.TotalEvents, Events.size());
  EXPECT_EQ(Idx.TotalLoads, Loads);
  EXPECT_EQ(Idx.numChunks(), (Events.size() + 63) / 64);
  EXPECT_EQ(Idx.Chunks[0].CumEvents, 0u);
  EXPECT_EQ(Idx.Chunks[0].PrevAddr, 0u);

  // Every chunk range decodes exactly its slice of the stream, from any
  // starting chunk, with no context from earlier chunks.
  for (size_t First = 0; First < Idx.numChunks(); First += 3) {
    SCOPED_TRACE("first chunk " + std::to_string(First));
    const size_t N = std::min<size_t>(3, Idx.numChunks() - First);
    auto SR = TraceReader::openShard(Path, Idx, First, N);
    ASSERT_TRUE(SR->ok()) << SR->error();
    const std::vector<AccessEvent> Got = drainAll(*SR);
    ASSERT_TRUE(SR->ok()) << SR->error();
    EXPECT_TRUE(SR->atEnd());
    const size_t Base = First * 64;
    const size_t Want = std::min<size_t>(Events.size() - Base, N * 64);
    ASSERT_EQ(Got.size(), Want);
    expectSameEvents({Events.begin() + Base, Events.begin() + Base + Want},
                     Got);
    // Shard readers cannot rewind: the carried state is gone.
    EXPECT_FALSE(SR->reset());
  }

  // A shard range outside the index is rejected, not clamped.
  auto Bad = TraceReader::openShard(Path, Idx, Idx.numChunks(), 1);
  EXPECT_FALSE(Bad->ok());
  EXPECT_EQ(Bad->errorCode(), TraceError::Corrupt);
  std::remove(Path.c_str());
}

// IndexInterval 0 turns the index off and produces a version-1 container:
// the compatibility escape hatch, and the regression proof that /1 files
// remain readable unchanged.
TEST(TraceFile, IndexIntervalZeroWritesVersion1) {
  const std::string Path = tmpPath("v1compat.sprof.trace");
  const std::vector<AccessEvent> Events = patternEvents(300);
  {
    std::string Err;
    auto W = TraceWriter::open(Path, 5, {}, /*Text=*/false, &Err,
                               /*IndexInterval=*/0);
    ASSERT_NE(W, nullptr) << Err;
    EXPECT_EQ(W->version(), 1u);
    EXPECT_STREQ(W->schema(), TraceSchemaV1);
    W->onBatch(Events.data(), Events.size());
    W->finish();
    ASSERT_TRUE(W->ok()) << W->error();
  }
  auto R = TraceReader::openFile(Path);
  ASSERT_TRUE(R->ok()) << R->error();
  EXPECT_EQ(R->version(), 1u);
  expectSameEvents(Events, drainAll(*R));
  ASSERT_TRUE(R->ok()) << R->error();
  EXPECT_TRUE(R->atEnd());
  EXPECT_FALSE(R->index().Present);

  // Indexed open hands a /1 file back positioned for sequential decode.
  auto RI = TraceReader::openFileIndexed(Path);
  ASSERT_TRUE(RI->ok()) << RI->error();
  EXPECT_FALSE(RI->index().Present);
  expectSameEvents(Events, drainAll(*RI));
  EXPECT_TRUE(RI->ok()) << RI->error();
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Reader error paths
//===----------------------------------------------------------------------===//

TEST(TraceFile, MissingFileIsAnIoError) {
  auto R = TraceReader::openFile(tmpPath("no_such_trace.sprof.trace"));
  ASSERT_NE(R, nullptr);
  EXPECT_FALSE(R->ok());
  EXPECT_EQ(R->errorCode(), TraceError::Io);
  AccessEvent Buf[4];
  EXPECT_EQ(R->pull(Buf, 4), 0u);
}

TEST(TraceFile, ForeignBytesAreABadMagicError) {
  std::stringstream SS("{\"schema\": \"not a trace\"}\n");
  TraceReader R(SS);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.errorCode(), TraceError::BadMagic);
}

TEST(TraceFile, UnknownVersionIsAVersionMismatch) {
  std::stringstream SS;
  {
    TraceWriter W(SS, 2);
    const std::vector<AccessEvent> Events = patternEvents(4);
    W.onBatch(Events.data(), Events.size());
    W.finish();
    ASSERT_TRUE(W.ok());
  }
  std::string Data = SS.str();
  Data[8] = 0x63; // first byte of the little-endian version word
  std::istringstream Patched(Data);
  TraceReader R(Patched);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.errorCode(), TraceError::VersionMismatch);
}

TEST(TraceFile, CutStreamsAreTruncationErrors) {
  std::stringstream SS;
  {
    TraceWriter W(SS, 5);
    const std::vector<AccessEvent> Events = patternEvents(500);
    W.onBatch(Events.data(), Events.size());
    W.finish();
    ASSERT_TRUE(W.ok());
  }
  const std::string Data = SS.str();
  // Cut mid-events and cut inside the footer; both must be diagnosed as
  // truncation, not silently served as a shorter trace.
  for (size_t Keep : {Data.size() / 2, Data.size() - 9}) {
    SCOPED_TRACE("keep " + std::to_string(Keep));
    std::istringstream Cut(Data.substr(0, Keep));
    TraceReader R(Cut);
    ASSERT_TRUE(R.ok()) << R.error();
    drainAll(R);
    EXPECT_FALSE(R.ok());
    EXPECT_EQ(R.errorCode(), TraceError::Truncated);
    EXPECT_FALSE(R.atEnd());
  }
}

// A site id at or past the header's site count would index past every
// consumer's per-site tables; both encodings reject it as corruption.
TEST(TraceFile, OutOfRangeSitesAreCorrupt) {
  std::vector<AccessEvent> Events = patternEvents(50);
  Events[30].SiteId = 9;
  for (bool Text : {false, true}) {
    SCOPED_TRACE(Text ? "text" : "binary");
    std::stringstream SS;
    {
      TraceWriter W(SS, 5, {}, Text);
      W.onBatch(Events.data(), Events.size());
      W.finish();
      ASSERT_TRUE(W.ok()) << W.error();
    }
    TraceReader R(SS);
    ASSERT_TRUE(R.ok()) << R.error();
    drainAll(R);
    EXPECT_FALSE(R.ok());
    EXPECT_EQ(R.errorCode(), TraceError::Corrupt);
  }
}

// The seekable tail's two failure modes: a chopped-off tail (unfinished or
// truncated capture) and an offset word that no longer points at the
// end-of-events marker (bit rot). Both must be loud, typed errors.
TEST(TraceFile, IndexedOpenRejectsDamagedTails) {
  std::stringstream SS;
  {
    TraceWriter W(SS, 5, {}, /*Text=*/false, /*IndexInterval=*/32);
    const std::vector<AccessEvent> Events = patternEvents(200);
    W.onBatch(Events.data(), Events.size());
    W.finish();
    ASSERT_TRUE(W.ok()) << W.error();
  }
  const std::string Data = SS.str();

  const std::string Path = tmpPath("damaged.sprof.trace");
  auto WriteFile = [&](const std::string &Bytes) {
    std::ofstream F(Path, std::ios::binary | std::ios::trunc);
    F.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  };

  // Healthy copy: baseline, and the EventsStart we corrupt towards below.
  WriteFile(Data);
  uint64_t EventsStart = 0;
  {
    auto R = TraceReader::openFileIndexed(Path);
    ASSERT_TRUE(R->ok()) << R->error();
    ASSERT_TRUE(R->index().Present);
    EventsStart = R->index().EventsStart;
  }

  // Tail cut off -> Truncated.
  WriteFile(Data.substr(0, Data.size() - 4));
  {
    auto R = TraceReader::openFileIndexed(Path);
    EXPECT_FALSE(R->ok());
    EXPECT_EQ(R->errorCode(), TraceError::Truncated);
  }

  // Offset word redirected at the first event record (a valid in-range
  // offset whose byte is an event tag, not the end marker) -> Corrupt.
  {
    std::string Bad = Data;
    const size_t WordAt = Bad.size() - 16;
    for (int I = 0; I < 8; ++I)
      Bad[WordAt + I] = static_cast<char>((EventsStart >> (8 * I)) & 0xff);
    WriteFile(Bad);
    auto R = TraceReader::openFileIndexed(Path);
    EXPECT_FALSE(R->ok());
    EXPECT_EQ(R->errorCode(), TraceError::Corrupt);
  }

  // Offset word pointing past the file -> Corrupt.
  {
    std::string Bad = Data;
    Bad[Bad.size() - 16] = static_cast<char>(0xff);
    Bad[Bad.size() - 15] = static_cast<char>(0xff);
    Bad[Bad.size() - 14] = static_cast<char>(0xff);
    WriteFile(Bad);
    auto R = TraceReader::openFileIndexed(Path);
    EXPECT_FALSE(R->ok());
    EXPECT_EQ(R->errorCode(), TraceError::Corrupt);
  }
  std::remove(Path.c_str());
}

namespace {

/// A sink that accepts \p Limit bytes and then refuses everything: the
/// deterministic stand-in for ENOSPC / a closed pipe.
class ChokedBuf : public std::streambuf {
public:
  explicit ChokedBuf(size_t Limit) : Limit(Limit) {}

private:
  int_type overflow(int_type Ch) override {
    if (Written >= Limit)
      return traits_type::eof();
    ++Written;
    return Ch;
  }
  std::streamsize xsputn(const char *, std::streamsize N) override {
    if (Written + static_cast<size_t>(N) > Limit)
      return 0; // short write
    Written += static_cast<size_t>(N);
    return N;
  }
  size_t Limit;
  size_t Written = 0;
};

} // namespace

// The ENOSPC regression: a sink that stops accepting bytes mid-stream must
// flip the writer into a reported failure -- at the batch that hit the
// short write, or at the latest in finish() -- never silently produce a
// truncated trace that claims ok().
// Replay indexes its per-function edge tables by the records' function
// ids, so a record naming a function past the section's count is
// corruption in both encodings.
TEST(TraceFile, EdgeRecordsOutsideTheFunctionCountAreCorrupt) {
  TraceEdgeSection Entry, EdgeRec;
  Entry.Present = EdgeRec.Present = true;
  Entry.NumFunctions = EdgeRec.NumFunctions = 2;
  Entry.Entries.push_back({2, 7});
  EdgeRec.Edges.push_back({5, 0, 0, 7});
  for (const TraceEdgeSection *S : {&Entry, &EdgeRec})
    for (bool Text : {false, true}) {
      SCOPED_TRACE(Text ? "text" : "binary");
      std::stringstream SS;
      {
        TraceWriter W(SS, 1, {}, Text);
        W.setEdgeSection(*S);
        W.finish();
        ASSERT_TRUE(W.ok()) << W.error();
      }
      TraceReader R(SS);
      drainAll(R);
      EXPECT_FALSE(R.ok());
      EXPECT_EQ(R.errorCode(), TraceError::Corrupt);
    }
}

// A damaged record count in the trailer must run into the end of the
// input, not into an allocation of its size: the edge section's entry
// count and the shard index's chunk count are each rewritten to a huge
// varint, and the reader must fail with a typed error.
TEST(TraceFile, DamagedTrailerCountsFailWithoutAllocating) {
  auto Rewrite = [](std::string Data, const std::string &Pattern,
                    size_t CountAt, const std::string &Count) {
    const size_t At = Data.rfind(Pattern);
    EXPECT_NE(At, std::string::npos);
    if (At != std::string::npos)
      Data.replace(At + CountAt, 1, Count);
    return Data;
  };
  std::string EdgesData, IndexData;
  {
    // A /1 trace with no events and an empty edge section over three
    // functions: its trailer holds [edges tag 1, 3 functions, 0 entries,
    // 0 edges].
    std::stringstream SS;
    TraceWriter W(SS, 1, {}, /*Text=*/false, /*IndexInterval=*/0);
    TraceEdgeSection S;
    S.Present = true;
    S.NumFunctions = 3;
    W.setEdgeSection(S);
    W.finish();
    ASSERT_TRUE(W.ok()) << W.error();
    EdgesData = Rewrite(SS.str(), std::string("\x01\x03\x00\x00", 4), 2,
                        "\x80\x80\x80\x80\x80\x20"); // 2^40 entries
  }
  {
    // 100 events at 64 per chunk: the index section opens with [index
    // tag 2, interval 64, 2 chunks].
    std::stringstream SS;
    TraceWriter W(SS, 5, {}, /*Text=*/false, /*IndexInterval=*/64);
    const std::vector<AccessEvent> Events = patternEvents(100);
    W.onBatch(Events.data(), Events.size());
    W.finish();
    ASSERT_TRUE(W.ok()) << W.error();
    IndexData = Rewrite(SS.str(), "\x02\x40\x02", 2,
                        "\x80\x80\x80\x80\x01"); // 2^28 chunks
  }
  for (const std::string *Data : {&EdgesData, &IndexData}) {
    std::istringstream IS(*Data);
    TraceReader R(IS);
    drainAll(R);
    EXPECT_FALSE(R.ok());
    EXPECT_TRUE(R.errorCode() == TraceError::Truncated ||
                R.errorCode() == TraceError::Corrupt)
        << traceErrorName(R.errorCode()) << ": " << R.error();
  }
}

// The edge section's function count sizes the replayed EdgeProfile, so
// both readers reject a count above MaxShapeCount as corrupt, and the text
// reader takes digits only ("edges -1" must not wrap to 2^32-1).
TEST(TraceFile, EdgeSectionFunctionCountIsBounded) {
  auto Encode = [](bool Text) {
    std::stringstream SS;
    TraceWriter W(SS, 1, {}, Text, /*IndexInterval=*/0);
    TraceEdgeSection S;
    S.Present = true;
    S.NumFunctions = 3;
    W.setEdgeSection(S);
    W.finish();
    EXPECT_TRUE(W.ok()) << W.error();
    return SS.str();
  };
  auto ReadError = [](const std::string &Data) {
    std::istringstream IS(Data);
    TraceReader R(IS);
    drainAll(R);
    return R.errorCode();
  };

  // Binary: [edges tag 1, 3 functions, 0 entries, 0 edges] with the
  // count rewritten to a varint.
  const std::string Binary = Encode(false);
  const size_t At = Binary.rfind(std::string("\x01\x03\x00\x00", 4));
  ASSERT_NE(At, std::string::npos);
  EXPECT_EQ(ReadError(Binary), TraceError::None);
  auto WithCount = [&](const std::string &Varint) {
    std::string D = Binary;
    D.replace(At + 1, 1, Varint);
    return D;
  };
  EXPECT_EQ(ReadError(WithCount("\x80\x80\x40")), TraceError::None); // 2^20
  EXPECT_EQ(ReadError(WithCount("\x81\x80\x40")), TraceError::Corrupt);
  EXPECT_EQ(ReadError(WithCount("\x80\xd0\xac\xf3\x0e")), // 4e9
            TraceError::Corrupt);

  // Text: the "edges 3" line rewritten.
  const std::string Text = Encode(true);
  const size_t Line = Text.find("\nedges 3\n");
  ASSERT_NE(Line, std::string::npos);
  EXPECT_EQ(ReadError(Text), TraceError::None);
  for (const char *Count : {"1048577", "4000000000", "-1", "+3", "3x", "",
                            "99999999999999999999999"}) {
    SCOPED_TRACE(Count);
    std::string D = Text;
    D.replace(Line + 7, 1, Count);
    EXPECT_EQ(ReadError(D), TraceError::Corrupt);
  }
  std::string D = Text;
  D.replace(Line + 7, 1, "1048576");
  EXPECT_EQ(ReadError(D), TraceError::None);

  // Replay of such a file fails with the reader's code instead of sizing
  // an edge profile by the count.
  const std::string Path = tmpPath("huge_edges.sprof.trace");
  D = Text;
  D.replace(Line + 7, 1, "4000000000");
  {
    std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
    OS << D;
  }
  TraceReplayOptions Opts;
  Opts.EvaluateWorkload = false;
  TraceReplayResult R = replayTraceFile(Path, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.ErrorCode, TraceError::Corrupt) << R.Error;
  std::remove(Path.c_str());
}

// Seeded mutation test of the trace reader over every container form:
// binary /1, binary /2 read sequentially, /2 opened through
// openFileIndexed with every chunk decoded by openShard, and text. Each
// form has a long seed and a short one whose header, index and edge
// section make up most of its bytes. Every reader of a mutant must reach
// a clean end, or fail with a typed error code and a non-empty
// diagnostic. Nothing may crash or allocate without bound.
TEST(TraceFile, MutatedTracesDecodeOrFailCleanly) {
  const std::vector<AccessEvent> Long = patternEvents(600);
  const std::vector<AccessEvent> Short = patternEvents(24);
  EdgeProfile EP(2);
  EP.setEntryCount(0, 3);
  EP.setEntryCount(1, 41);
  EP.setFrequency(0, Edge{0, 0}, 17);
  EP.setFrequency(1, Edge{1, 0}, 9);
  auto Encode = [&](const std::vector<AccessEvent> &Events, bool Text,
                    uint64_t IndexInterval) {
    std::stringstream SS;
    TraceWriter W(SS, 5, {"unit.workload", "train", "edge-check"}, Text,
                  IndexInterval);
    W.setEdgeSection(edgeSectionFromProfile(EP));
    W.onBatch(Events.data(), Events.size());
    W.finish();
    EXPECT_TRUE(W.ok()) << W.error();
    return SS.str();
  };

  unsigned Clean = 0, Failed = 0;
  auto Settle = [&](TraceReader &R, const char *Kind) {
    drainAll(R);
    if (R.ok()) {
      ++Clean;
      EXPECT_TRUE(R.atEnd()) << Kind << " mutant: ok but short";
    } else {
      ++Failed;
      EXPECT_NE(R.errorCode(), TraceError::None) << Kind << " mutant";
      EXPECT_FALSE(R.error().empty()) << Kind << " mutant";
    }
  };
  auto Sequential = [&](const std::string &Mutant, const char *Kind) {
    std::istringstream IS(Mutant);
    TraceReader R(IS);
    Settle(R, Kind);
  };

  static constexpr char BinarySyntax[] = "\0\1\2\x7f\x80\xff";
  static constexpr char TextSyntax[] = "0123456789-:,# \nLPxsitedg";
  const std::string_view Binary(BinarySyntax, sizeof(BinarySyntax) - 1);
  const std::vector<std::string> Indexed = {Encode(Long, false, 64),
                                            Encode(Short, false, 4)};
  test::forEachMutant({Encode(Long, false, 0), Encode(Short, false, 0)},
                      Binary, 0x7ace1ULL, Sequential);
  test::forEachMutant(Indexed, Binary, 0x7ace2ULL, Sequential);
  test::forEachMutant({Encode(Long, true, 0), Encode(Short, true, 0)},
                      TextSyntax, 0x7ace3ULL, Sequential);

  const std::string Path = tmpPath("mutant.sprof.trace");
  test::forEachMutant(
      Indexed, Binary, 0x7ace4ULL,
      [&](const std::string &Mutant, const char *Kind) {
        {
          std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
          OS << Mutant;
          ASSERT_TRUE(OS.good());
        }
        auto R = TraceReader::openFileIndexed(Path);
        if (!R->ok() || !R->index().Present) {
          Settle(*R, Kind);
          return;
        }
        for (size_t C = 0; C != R->index().numChunks(); ++C) {
          auto SR = TraceReader::openShard(Path, R->index(), C);
          Settle(*SR, Kind);
        }
      });
  std::remove(Path.c_str());

  EXPECT_GT(Clean, 0u);
  EXPECT_GT(Failed, 0u);
}

TEST(TraceFile, WriterReportsSinkFailures) {
  const std::vector<AccessEvent> Events = patternEvents(5000);
  for (size_t Limit : {size_t(0), size_t(64), size_t(4096)}) {
    SCOPED_TRACE("limit " + std::to_string(Limit));
    ChokedBuf Choked(Limit);
    std::ostream OS(&Choked);
    TraceWriter W(OS, 5);
    W.onBatch(Events.data(), Events.size());
    W.finish();
    EXPECT_FALSE(W.ok());
    EXPECT_NE(W.error().find("write failure"), std::string::npos)
        << W.error();
  }
}

//===----------------------------------------------------------------------===//
// Text access-log import
//===----------------------------------------------------------------------===//

TEST(TraceFile, ImportAccessLogRoundTrip) {
  const std::string Path = tmpPath("imported.sprof.trace");
  std::istringstream Log("# cacheSight-style access log\n"
                         "0x1000, 0, L\n"
                         " 0x1040 ,0, load\n"
                         "4242, 3, P\n"
                         "\n"
                         "0x1080, 0, l\n");
  std::string Err;
  auto Res = importAccessLog(Log, Path, &Err);
  ASSERT_TRUE(Res.has_value()) << Err;
  EXPECT_EQ(Res->Events, 4u);
  EXPECT_EQ(Res->Loads, 3u);
  EXPECT_EQ(Res->Prefetches, 1u);
  EXPECT_EQ(Res->NumSites, 4u);
  EXPECT_GT(Res->Bytes, 0u);

  auto R = TraceReader::openFile(Path);
  ASSERT_TRUE(R->ok()) << R->error();
  EXPECT_EQ(R->version(), TraceFormatVersion);
  const std::vector<AccessEvent> Events = drainAll(*R);
  ASSERT_TRUE(R->ok()) << R->error();
  ASSERT_EQ(Events.size(), 4u);
  EXPECT_EQ(Events[0].Address, 0x1000u);
  EXPECT_EQ(Events[0].SiteId, 0u);
  EXPECT_EQ(Events[0].Kind, AccessKind::Load);
  EXPECT_EQ(Events[0].GlobalRefIndex, 1u);
  EXPECT_EQ(Events[1].Address, 0x1040u);
  EXPECT_EQ(Events[2].Address, 4242u);
  EXPECT_EQ(Events[2].SiteId, 3u);
  EXPECT_EQ(Events[2].Kind, AccessKind::Prefetch);
  EXPECT_EQ(Events[3].GlobalRefIndex, 4u);

  // The import is a real /2 file: indexed open finds the shard index, so
  // imported logs replay in parallel like native captures.
  auto RI = TraceReader::openFileIndexed(Path);
  ASSERT_TRUE(RI->ok()) << RI->error();
  EXPECT_TRUE(RI->index().Present);
  std::remove(Path.c_str());

  // Malformed input is rejected with the offending line named.
  std::istringstream BadKind("0x10, 0, L\n0x20, 1, X\n");
  EXPECT_FALSE(importAccessLog(BadKind, tmpPath("bad.sprof.trace"), &Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
  // A leading zero is decimal, not octal.
  std::istringstream Decimal("010, 0, L\n0xFFFFFFFFFFFFFFFF, 7, P\n");
  ASSERT_TRUE(importAccessLog(Decimal, Path, &Err)) << Err;
  R = TraceReader::openFile(Path);
  const std::vector<AccessEvent> Parsed = drainAll(*R);
  ASSERT_EQ(Parsed.size(), 2u);
  EXPECT_EQ(Parsed[0].Address, 10u);
  EXPECT_EQ(Parsed[1].Address, ~uint64_t{0});
  std::remove(Path.c_str());

  std::istringstream BadShape("0x10\n");
  EXPECT_FALSE(importAccessLog(BadShape, tmpPath("bad.sprof.trace"), &Err));
  EXPECT_NE(Err.find("line 1"), std::string::npos) << Err;
}

// Seeded mutation test of the access-log importer (sprof-inspect import):
// every mutant of a log must import or fail with a diagnostic, and an
// import must write a trace that reads back with its event count.
TEST(TraceFile, MutatedAccessLogsImportOrFailCleanly) {
  const std::vector<std::string> Seeds = {
      "# cacheSight-style access log\n"
      "0x1000, 0, L\n"
      " 0x1040 ,0, load\n"
      "4242, 3, P\n"
      "\n"
      "0x1080, 0, l\n"
      "0x7fffffffffffffff, 12, prefetch\n",
      "1,1,L\n2,2,P\n0X3,4294967294,LOAD\n"};
  static constexpr char Syntax[] = "0123456789abcdefxX,#LlPp \t\r\n-+";
  const std::string Path = tmpPath("mutant-import.sprof.trace");
  // The site count is the highest id plus one, so the largest 32-bit id
  // has no count to go with it.
  // Signs and values past 64 bits are rejected, not wrapped or clamped.
  for (const char *Bad :
       {"0x10, 4294967295, L\n", "0x10, -1, L\n",
        "0x10, -18446744073709551615, L\n", "-1, 0, L\n", "+16, 0, L\n",
        "0x10000000000000000, 0, L\n", "18446744073709551616, 0, L\n",
        "0x-1, 0, L\n", "0x0x10, 0, L\n", "0x, 0, L\n", "16, 0x1, L\n"}) {
    SCOPED_TRACE(Bad);
    std::istringstream Log(Bad);
    std::string Err;
    EXPECT_FALSE(importAccessLog(Log, Path, &Err));
    EXPECT_NE(Err.find("line 1: bad"), std::string::npos) << Err;
  }

  unsigned Imported = 0, Rejected = 0;
  test::forEachMutant(
      Seeds, {Syntax, sizeof(Syntax) - 1}, 0x1d9a11ULL,
      [&](const std::string &Mutant, const char *Kind) {
        std::istringstream Log(Mutant);
        std::string Err;
        std::optional<TraceImportResult> Res =
            importAccessLog(Log, Path, &Err);
        if (!Res) {
          ++Rejected;
          EXPECT_FALSE(Err.empty()) << Kind << " mutant";
          return;
        }
        ++Imported;
        EXPECT_EQ(Res->Loads + Res->Prefetches, Res->Events);
        auto R = TraceReader::openFile(Path);
        const std::vector<AccessEvent> Events = drainAll(*R);
        EXPECT_TRUE(R->ok()) << Kind << " mutant: " << R->error();
        EXPECT_EQ(Events.size(), Res->Events) << Kind << " mutant";
      });
  std::remove(Path.c_str());
  EXPECT_GT(Imported, 0u);
  EXPECT_GT(Rejected, 0u);
}

TEST(TraceReplay, ReadErrorsSurfaceThroughTheResult) {
  TraceReplayResult R =
      replayTraceFile(tmpPath("no_such_replay.sprof.trace"));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.ErrorCode, TraceError::Io);
  EXPECT_FALSE(R.Error.empty());
}

//===----------------------------------------------------------------------===//
// Stream primitives and synthetic generators
//===----------------------------------------------------------------------===//

TEST(Stream, VectorSourceDrainAndTee) {
  const std::vector<AccessEvent> Events = patternEvents(300);
  VectorSource Src(Events, 5, "unit");
  CollectSink A, B;
  TeeSink Tee;
  Tee.add(&A);
  Tee.add(&B);
  EXPECT_EQ(drainStream(Src, Tee, 64), Events.size());
  expectSameEvents(Events, A.events());
  expectSameEvents(Events, B.events());
  // A drained source stays empty until reset().
  AccessEvent Buf[4];
  EXPECT_EQ(Src.pull(Buf, 4), 0u);
  ASSERT_TRUE(Src.reset());
  expectSameEvents(Events, drainAll(Src));
}

TEST(Stream, SyntheticGeneratorsAreDeterministic) {
  SyntheticTraceConfig Config;
  Config.Events = 4000;
  Config.Seed = 7;
  for (const std::string &Name : syntheticTraceNames()) {
    SCOPED_TRACE(Name);
    auto A = makeSyntheticTrace(Name, Config);
    auto B = makeSyntheticTrace(Name, Config);
    ASSERT_NE(A, nullptr);
    ASSERT_NE(B, nullptr);
    EXPECT_GT(A->numSites(), 0u);
    const std::vector<AccessEvent> EA = drainAll(*A);
    expectSameEvents(EA, drainAll(*B));
    // Events counts the loads; prefetch-kind events ride on top.
    size_t Loads = 0;
    for (const AccessEvent &E : EA) {
      Loads += E.Kind == AccessKind::Load;
      EXPECT_LT(E.SiteId, A->numSites());
    }
    EXPECT_EQ(Loads, Config.Events);
    // reset() replays the identical sequence.
    ASSERT_TRUE(A->reset());
    expectSameEvents(EA, drainAll(*A));
  }
  // stream-mixed is the kind-filtering fixture: it must contain prefetch
  // events for the Load-only profiler filter to have something to drop.
  auto Mixed = makeSyntheticTrace("stream-mixed", Config);
  ASSERT_NE(Mixed, nullptr);
  size_t Prefetches = 0;
  for (const AccessEvent &E : drainAll(*Mixed))
    Prefetches += E.Kind == AccessKind::Prefetch;
  EXPECT_GT(Prefetches, 0u);
}

TEST(Stream, TraceWorkloadRegistry) {
  EXPECT_EQ(traceWorkloadNames(), syntheticTraceNames());
  EXPECT_TRUE(isTraceWorkloadName("stream-seq"));
  EXPECT_TRUE(isTraceWorkloadName("trace:/tmp/whatever.sprof.trace"));
  EXPECT_FALSE(isTraceWorkloadName("181.mcf"));
  EXPECT_EQ(makeAccessSourceByName("no-such-stream"), nullptr);
  auto Src = makeAccessSourceByName("stream-chase");
  ASSERT_NE(Src, nullptr);
  EXPECT_GT(drainAll(*Src).size(), 0u);
  // A "trace:" name with an unreadable file still resolves (the error
  // lives in the reader), it just produces no events.
  auto Bad = makeAccessSourceByName("trace:" + tmpPath("missing.sprof.trace"));
  ASSERT_NE(Bad, nullptr);
  EXPECT_EQ(drainAll(*Bad).size(), 0u);
}

TEST(Stream, ProfilerConsumeDropsPrefetchKindEvents) {
  std::vector<AccessEvent> Events;
  for (size_t I = 0; I != 15; ++I) {
    AccessEvent E;
    E.Address = 0x1000 + 64 * I;
    E.SiteId = 0;
    E.Kind = I < 10 ? AccessKind::Load : AccessKind::Prefetch;
    Events.push_back(E);
  }
  VectorSource Src(std::move(Events), 1);
  StrideProfiler P(1, StrideProfilerConfig());
  P.consume(Src);
  EXPECT_EQ(P.totalInvocations(), 10u);
}

TEST(Stream, ReplayAccessStreamAccountsEveryEvent) {
  const std::vector<AccessEvent> Events = patternEvents(1000);
  size_t Loads = 0;
  for (const AccessEvent &E : Events)
    Loads += E.Kind == AccessKind::Load;
  VectorSource Src(Events, 5);
  MemoryHierarchy MH((MemoryConfig()));
  const StreamReplayStats S = replayAccessStream(MH, Src);
  EXPECT_EQ(S.Events, Events.size());
  EXPECT_EQ(S.Loads, Loads);
  EXPECT_EQ(S.Prefetches, Events.size() - Loads);
  EXPECT_EQ(MH.stats().DemandAccesses, Loads);
  EXPECT_GT(S.Cycles, 0u);
}

//===----------------------------------------------------------------------===//
// InterpreterSource: the engines as one source among several
//===----------------------------------------------------------------------===//

TEST(Stream, InterpreterSourceMatchesLiveProfiler) {
  for (auto Engine : {InterpreterConfig::Engine::Reference,
                      InterpreterConfig::Engine::Decoded}) {
    SCOPED_TRACE(Engine == InterpreterConfig::Engine::Reference
                     ? "reference"
                     : "decoded");
    uint32_t D, N;
    StrideProfilerConfig PC;
    PC.Sampling.Enabled = false;

    // Live: profiler attached to the run.
    Module MLive = test::makeChaseModule(D, N);
    instrumentModule(MLive, ProfilingMethod::EdgeCheck);
    SimMemory MemLive;
    test::fillChaseList(MemLive, 4096, 64);
    StrideProfiler Live(MLive.NumLoadSites, PC);
    InterpreterConfig IC;
    IC.Exec = Engine;
    Interpreter ILive(MLive, std::move(MemLive), TimingModel(), IC);
    ILive.attachProfiler(&Live);
    const RunStats LiveStats = ILive.run();
    ASSERT_TRUE(LiveStats.Completed);

    // Streamed: the same run wrapped as an AccessSource, consumed by a
    // fresh profiler.
    Module MSrc = test::makeChaseModule(D, N);
    instrumentModule(MSrc, ProfilingMethod::EdgeCheck);
    SimMemory MemSrc;
    test::fillChaseList(MemSrc, 4096, 64);
    Interpreter ISrc(MSrc, std::move(MemSrc), TimingModel(), IC);
    InterpreterSource Src(ISrc, MSrc.NumLoadSites);
    StrideProfiler Streamed(MSrc.NumLoadSites, PC);
    const uint64_t Cost = Streamed.consume(Src);

    ASSERT_TRUE(Src.ran());
    EXPECT_EQ(Src.stats().LoadRefs, LiveStats.LoadRefs);
    // The stream-driven profiler charges exactly what the live run booked
    // as runtime cycles, and harvests the identical profile.
    EXPECT_EQ(Cost, LiveStats.RuntimeCycles);
    EXPECT_EQ(Streamed.totalInvocations(), Live.totalInvocations());
    EXPECT_EQ(Streamed.totalProcessed(), Live.totalProcessed());
    EXPECT_EQ(Streamed.totalLfuCalls(), Live.totalLfuCalls());
    EXPECT_EQ(strideProfileToJson(StrideProfile::fromProfiler(Streamed)).str(),
              strideProfileToJson(StrideProfile::fromProfiler(Live)).str());
  }
}

//===----------------------------------------------------------------------===//
// Capture -> replay fidelity (the acceptance bar)
//===----------------------------------------------------------------------===//

// Every profiling method on both engines: a capture of the live profile
// run replays to a bit-identical stride profile, edge profile, and
// strideProf call accounting.
TEST(TraceReplay, ReplayedProfilesMatchLiveAcrossMethodsAndEngines) {
  std::unique_ptr<Workload> W = makeWorkloadByName("181.mcf");
  ASSERT_NE(W, nullptr);
  for (auto Engine : {InterpreterConfig::Engine::Reference,
                      InterpreterConfig::Engine::Decoded}) {
    for (ProfilingMethod Method : allProfilingMethods()) {
      const std::string Tag =
          std::string(Engine == InterpreterConfig::Engine::Reference
                          ? "reference"
                          : "decoded") +
          "/" + profilingMethodName(Method);
      SCOPED_TRACE(Tag);
      const std::string Path = tmpPath("diff_" +
                                       std::string(profilingMethodName(
                                           Method)) +
                                       (Engine ==
                                                InterpreterConfig::Engine::
                                                    Reference
                                            ? "_ref"
                                            : "_dec") +
                                       ".sprof.trace");

      PipelineConfig C = engineConfig(Engine);
      C.TraceCapturePath = Path;
      Pipeline P(*W, C);
      const ProfileRunResult Live =
          P.runProfile(Method, DataSet::Train, /*WithMemorySystem=*/false);
      ASSERT_TRUE(Live.Capture.Enabled);
      EXPECT_EQ(Live.Capture.Schema, TraceSchemaV2);
      // The capture records the complete pre-sampling invocation stream.
      EXPECT_EQ(Live.Capture.Events, Live.StrideInvocations);

      TraceReplayOptions Opts;
      Opts.Config = engineConfig(Engine);
      Opts.EvaluateWorkload = false;
      Opts.SimulateMemory = false;
      const TraceReplayResult Replay = replayTraceFile(Path, Opts);
      ASSERT_TRUE(Replay.Ok) << Replay.Error;
      EXPECT_EQ(Replay.Method, Method);
      EXPECT_EQ(Replay.Events, Live.StrideInvocations);

      EXPECT_EQ(strideProfileToJson(Replay.Profile.Strides).str(),
                strideProfileToJson(Live.Strides).str());
      EXPECT_EQ(edgeProfileToJson(Replay.Profile.Edges).str(),
                edgeProfileToJson(Live.Edges).str());
      EXPECT_EQ(Replay.Profile.StrideInvocations, Live.StrideInvocations);
      EXPECT_EQ(Replay.Profile.StrideProcessed, Live.StrideProcessed);
      EXPECT_EQ(Replay.Profile.LfuCalls, Live.LfuCalls);
      // The serialized store -- what experiments persist -- is identical.
      const ProfileStore LiveStore({W->info().Name,
                                    profilingMethodName(Method),
                                    dataSetName(DataSet::Train)},
                                   Live.Edges, Live.Strides);
      const ProfileStore ReplayStore({W->info().Name,
                                      profilingMethodName(Method),
                                      dataSetName(DataSet::Train)},
                                     Replay.Profile.Edges,
                                     Replay.Profile.Strides);
      EXPECT_EQ(LiveStore.toString(), ReplayStore.toString());
      std::remove(Path.c_str());
    }
  }
}

// The full-evaluation half: replaying a capture whose provenance names a
// rebuildable workload reproduces the baseline and prefetched timed runs
// -- cycle accounting, classifier verdicts, and prefetch-outcome
// attribution -- bit for bit, on both engines.
TEST(TraceReplay, FullEvaluationMatchesLivePipeline) {
  std::unique_ptr<Workload> W = makeWorkloadByName("181.mcf");
  ASSERT_NE(W, nullptr);
  for (auto Engine : {InterpreterConfig::Engine::Reference,
                      InterpreterConfig::Engine::Decoded}) {
    SCOPED_TRACE(Engine == InterpreterConfig::Engine::Reference
                     ? "reference"
                     : "decoded");
    const std::string Path =
        tmpPath(Engine == InterpreterConfig::Engine::Reference
                    ? "full_ref.sprof.trace"
                    : "full_dec.sprof.trace");
    PipelineConfig C = engineConfig(Engine);
    C.Memory.EnableAttribution = true;
    C.TraceCapturePath = Path;
    Pipeline P(*W, C);
    const ProfileRunResult Live =
        P.runProfile(ProfilingMethod::EdgeCheck, DataSet::Train,
                     /*WithMemorySystem=*/false);
    ASSERT_TRUE(Live.Capture.Enabled);
    const RunStats LiveBaseline = P.runBaseline(DataSet::Train);
    const TimedRunResult LiveTimed =
        P.runPrefetched(DataSet::Train, Live.Edges, Live.Strides);

    TraceReplayOptions Opts;
    Opts.Config = engineConfig(Engine);
    Opts.Config.Memory.EnableAttribution = true;
    Opts.SimulateMemory = false;
    const TraceReplayResult Replay = replayTraceFile(Path, Opts);
    ASSERT_TRUE(Replay.Ok) << Replay.Error;
    ASSERT_TRUE(Replay.HasWorkload);
    EXPECT_EQ(Replay.Prov.Workload, W->info().Name);

    expectSameStats(LiveBaseline, Replay.Baseline);
    expectSameStats(LiveTimed.Stats, Replay.Timed.Stats);
    EXPECT_EQ(feedbackToJson(Replay.Timed.Feedback, Replay.Profile.Strides,
                             Opts.Config.Classifier)
                  .str(),
              feedbackToJson(LiveTimed.Feedback, Live.Strides,
                             C.Classifier)
                  .str());
    ASSERT_TRUE(LiveTimed.Attribution.Enabled);
    ASSERT_TRUE(Replay.Timed.Attribution.Enabled);
    EXPECT_EQ(attributionToJson(Replay.Timed.Attribution).str(),
              attributionToJson(LiveTimed.Attribution).str());
    EXPECT_DOUBLE_EQ(Replay.Speedup,
                     static_cast<double>(LiveBaseline.Cycles) /
                         static_cast<double>(LiveTimed.Stats.Cycles));
    std::remove(Path.c_str());
  }
}

// Workload-less streams (the trace-backed family) get the stream-only
// path: stride profiling, per-site classification, and the two-pass cache
// simulation with synthesized prefetches.
TEST(TraceReplay, StreamOnlyReplaySimulatesPrefetching) {
  SyntheticTraceConfig Config;
  Config.Events = 20000;
  Config.Seed = 3;
  auto Src = makeSyntheticTrace("stream-seq", Config);
  ASSERT_NE(Src, nullptr);

  TraceReplayOptions Opts;
  const TraceReplayResult R = replayStream(*Src, Opts, "stream-seq");
  ASSERT_TRUE(R.Ok);
  EXPECT_FALSE(R.HasWorkload);
  ASSERT_TRUE(R.HasMemSim);
  EXPECT_GT(R.Profile.StrideInvocations, 0u);

  // stream-seq is one dominant stride per site: every site classifies,
  // and the synthesized prefetches must recover stall cycles.
  size_t Classified = 0;
  for (StrideClass SC : R.SiteClass)
    Classified += SC != StrideClass::None;
  EXPECT_GT(Classified, 0u);
  EXPECT_EQ(R.MemBaseline.Events, Config.Events);
  EXPECT_GT(R.MemBaseline.StallCycles, 0u);
  EXPECT_GT(R.MemPrefetched.Prefetches, 0u);
  EXPECT_LT(R.MemPrefetched.StallCycles, R.MemBaseline.StallCycles);
}

//===----------------------------------------------------------------------===//
// Parallel replay: bit-identical to serial (the tentpole's acceptance bar)
//===----------------------------------------------------------------------===//

namespace {

/// Every observable a replay produces, compared field by field so a
/// parallel divergence names exactly what broke.
void expectSameReplay(const TraceReplayResult &Serial,
                      const TraceReplayResult &Par) {
  ASSERT_TRUE(Serial.Ok) << Serial.Error;
  ASSERT_TRUE(Par.Ok) << Par.Error;
  EXPECT_EQ(Par.Events, Serial.Events);
  EXPECT_EQ(Par.Method, Serial.Method);
  EXPECT_EQ(strideProfileToJson(Par.Profile.Strides).str(),
            strideProfileToJson(Serial.Profile.Strides).str());
  EXPECT_EQ(edgeProfileToJson(Par.Profile.Edges).str(),
            edgeProfileToJson(Serial.Profile.Edges).str());
  EXPECT_EQ(Par.Profile.StrideInvocations, Serial.Profile.StrideInvocations);
  EXPECT_EQ(Par.Profile.StrideProcessed, Serial.Profile.StrideProcessed);
  EXPECT_EQ(Par.Profile.LfuCalls, Serial.Profile.LfuCalls);
  EXPECT_EQ(Par.Profile.Stats.RuntimeCycles,
            Serial.Profile.Stats.RuntimeCycles);
  ASSERT_EQ(Par.SiteClass.size(), Serial.SiteClass.size());
  for (size_t S = 0; S != Serial.SiteClass.size(); ++S)
    EXPECT_EQ(Par.SiteClass[S], Serial.SiteClass[S]) << "site " << S;
  EXPECT_EQ(Par.HasMemSim, Serial.HasMemSim);
  if (Serial.HasMemSim) {
    EXPECT_EQ(Par.MemBaseline.Cycles, Serial.MemBaseline.Cycles);
    EXPECT_EQ(Par.MemBaseline.StallCycles, Serial.MemBaseline.StallCycles);
    EXPECT_EQ(Par.MemBaseline.Loads, Serial.MemBaseline.Loads);
    EXPECT_EQ(Par.MemPrefetched.Cycles, Serial.MemPrefetched.Cycles);
    EXPECT_EQ(Par.MemPrefetched.StallCycles,
              Serial.MemPrefetched.StallCycles);
    EXPECT_EQ(Par.MemPrefetched.Prefetches, Serial.MemPrefetched.Prefetches);
    EXPECT_EQ(Par.MemBaselineStats.DemandAccesses,
              Serial.MemBaselineStats.DemandAccesses);
    EXPECT_EQ(Par.MemPrefetchedStats.PrefetchesIssued,
              Serial.MemPrefetchedStats.PrefetchesIssued);
  }
}

} // namespace

// The differential bar: for every profiling method, with and without the
// stream-driven memory simulation, a threaded replay of a real capture is
// bit-identical to the serial replay of the same file.
TEST(TraceReplay, ParallelReplayMatchesSerialAcrossMethods) {
  std::unique_ptr<Workload> W = makeWorkloadByName("181.mcf");
  ASSERT_NE(W, nullptr);
  for (ProfilingMethod Method : allProfilingMethods()) {
    SCOPED_TRACE(profilingMethodName(Method));
    const std::string Path =
        tmpPath("par_" + std::string(profilingMethodName(Method)) +
                ".sprof.trace");
    PipelineConfig C = engineConfig(InterpreterConfig::Engine::Decoded);
    C.TraceCapturePath = Path;
    Pipeline P(*W, C);
    const ProfileRunResult Live =
        P.runProfile(Method, DataSet::Train, /*WithMemorySystem=*/false);
    ASSERT_TRUE(Live.Capture.Enabled);

    for (bool MemSim : {false, true}) {
      SCOPED_TRACE(MemSim ? "memsim" : "profile-only");
      TraceReplayOptions Opts;
      Opts.Config = engineConfig(InterpreterConfig::Engine::Decoded);
      Opts.EvaluateWorkload = false;
      Opts.SimulateMemory = MemSim;
      const TraceReplayResult Serial = replayTraceFile(Path, Opts);
      Opts.Threads = 4;
      const TraceReplayResult Par = replayTraceFile(Path, Opts);
      expectSameReplay(Serial, Par);
    }
    std::remove(Path.c_str());
  }
}

// The workload-evaluation half under threads: baseline/timed accounting,
// feedback, attribution, and speedup all match the serial replay.
TEST(TraceReplay, ParallelWorkloadEvaluationMatchesSerial) {
  std::unique_ptr<Workload> W = makeWorkloadByName("181.mcf");
  ASSERT_NE(W, nullptr);
  const std::string Path = tmpPath("par_eval.sprof.trace");
  PipelineConfig C = engineConfig(InterpreterConfig::Engine::Decoded);
  C.TraceCapturePath = Path;
  Pipeline P(*W, C);
  const ProfileRunResult Live =
      P.runProfile(ProfilingMethod::EdgeCheck, DataSet::Train,
                   /*WithMemorySystem=*/false);
  ASSERT_TRUE(Live.Capture.Enabled);

  TraceReplayOptions Opts;
  Opts.Config = engineConfig(InterpreterConfig::Engine::Decoded);
  Opts.Config.Memory.EnableAttribution = true;
  Opts.SimulateMemory = false;
  const TraceReplayResult Serial = replayTraceFile(Path, Opts);
  Opts.Threads = 3;
  const TraceReplayResult Par = replayTraceFile(Path, Opts);
  ASSERT_TRUE(Serial.Ok) << Serial.Error;
  ASSERT_TRUE(Par.Ok) << Par.Error;
  ASSERT_TRUE(Serial.HasWorkload);
  ASSERT_TRUE(Par.HasWorkload);

  expectSameReplay(Serial, Par);
  expectSameStats(Serial.Baseline, Par.Baseline);
  expectSameStats(Serial.Timed.Stats, Par.Timed.Stats);
  EXPECT_EQ(feedbackToJson(Par.Timed.Feedback, Par.Profile.Strides,
                           Opts.Config.Classifier)
                .str(),
            feedbackToJson(Serial.Timed.Feedback, Serial.Profile.Strides,
                           Opts.Config.Classifier)
                .str());
  ASSERT_TRUE(Serial.Timed.Attribution.Enabled);
  ASSERT_TRUE(Par.Timed.Attribution.Enabled);
  EXPECT_EQ(attributionToJson(Par.Timed.Attribution).str(),
            attributionToJson(Serial.Timed.Attribution).str());
  EXPECT_DOUBLE_EQ(Par.Speedup, Serial.Speedup);
  std::remove(Path.c_str());
}

// The shard count is an implementation knob, not an observable: any value,
// on any method, produces the identical profile as the serial replay --
// the commutative-merge contract at the options level.
TEST(TraceReplay, ProfileShardCountIsObservationallyInvisible) {
  SyntheticTraceConfig Config;
  Config.Events = 30000;
  Config.Seed = 11;
  auto Src = makeSyntheticTrace("stream-mixed", Config);
  ASSERT_NE(Src, nullptr);

  for (ProfilingMethod Method : allProfilingMethods()) {
    SCOPED_TRACE(profilingMethodName(Method));
    TraceReplayOptions Base;
    Base.Method = Method;
    Base.EvaluateWorkload = false;
    Base.SimulateMemory = false;
    ASSERT_TRUE(Src->reset());
    const TraceReplayResult Serial = replayStream(*Src, Base, "mixed");
    ASSERT_TRUE(Serial.Ok) << Serial.Error;
    for (unsigned Shards : {1u, 2u, 5u, 16u}) {
      SCOPED_TRACE("shards " + std::to_string(Shards));
      TraceReplayOptions O = Base;
      O.Threads = 3;
      O.ProfileShards = Shards;
      ASSERT_TRUE(Src->reset());
      const TraceReplayResult R = replayStream(*Src, O, "mixed");
      expectSameReplay(Serial, R);
    }
  }
}

namespace {

/// A stream with an uneven site mix: site 0 takes about half the events,
/// sites 1-3 most of the rest, and 37 cold sites the remainder. Each site
/// walks its own stride with an occasional jump, GlobalRefIndex advances
/// by 1-3 per event, and about one event in 13 is a prefetch.
std::vector<AccessEvent> skewedEvents(size_t N, uint32_t NumSites,
                                      uint64_t Seed) {
  Rng R(Seed);
  std::vector<uint64_t> Addr(NumSites);
  for (uint32_t S = 0; S != NumSites; ++S)
    Addr[S] = 0x10000000ull * (S + 1);
  std::vector<AccessEvent> Events(N);
  uint64_t Ref = 0;
  for (AccessEvent &E : Events) {
    const uint64_t Pick = R.below(100);
    E.SiteId = Pick < 50   ? 0
               : Pick < 85 ? static_cast<uint32_t>(1 + R.below(3))
                           : static_cast<uint32_t>(4 + R.below(NumSites - 4));
    Addr[E.SiteId] += R.below(16) == 0 ? R.below(4096) * 8
                                       : 8 * (E.SiteId % 7 + 1);
    E.Address = Addr[E.SiteId];
    Ref += 1 + R.below(3);
    E.GlobalRefIndex = Ref;
    E.Kind = R.below(13) == 0 ? AccessKind::Prefetch : AccessKind::Load;
  }
  return Events;
}

/// Writes \p Events as an indexed /2 trace with \p IndexInterval-event
/// chunks; returns the writer's event count (0 on failure).
uint64_t writeIndexedTrace(const std::string &Path,
                           const std::vector<AccessEvent> &Events,
                           uint32_t NumSites, uint64_t IndexInterval) {
  std::string Err;
  auto W = TraceWriter::open(Path, NumSites, {}, /*Text=*/false, &Err,
                             IndexInterval);
  EXPECT_NE(W, nullptr) << Err;
  if (!W)
    return 0;
  W->onBatch(Events.data(), Events.size());
  W->finish();
  EXPECT_TRUE(W->ok()) << W->error();
  return W->ok() ? W->eventsWritten() : 0;
}

} // namespace

// The fused decode + bucket path of an indexed file, differentially: many
// small chunks (so every thread count gets several multi-chunk decode
// jobs), an uneven site mix, and prefetch-kind events. Every thread and
// shard count, on every method, with and without the memory passes,
// replays identically to the serial reader and counts every written event.
TEST(TraceReplay, FusedFileReplayMatchesSerialAcrossThreadsAndShards) {
  constexpr uint32_t NumSites = 41;
  const std::string Path = tmpPath("fused.sprof.trace");
  const uint64_t Written = writeIndexedTrace(
      Path, skewedEvents(12000, NumSites, 5), NumSites, /*IndexInterval=*/97);
  ASSERT_EQ(Written, 12000u);
  {
    auto R = TraceReader::openFileIndexed(Path);
    ASSERT_TRUE(R->ok()) << R->error();
    ASSERT_TRUE(R->index().Present);
    ASSERT_GT(R->index().numChunks(), 8u * 4u * 3u);
  }

  for (ProfilingMethod Method : allProfilingMethods()) {
    SCOPED_TRACE(profilingMethodName(Method));
    for (bool MemSim : {false, true}) {
      SCOPED_TRACE(MemSim ? "memsim" : "profile-only");
      TraceReplayOptions Opts;
      Opts.Method = Method;
      Opts.EvaluateWorkload = false;
      Opts.SimulateMemory = MemSim;
      const TraceReplayResult Serial = replayTraceFile(Path, Opts);
      ASSERT_TRUE(Serial.Ok) << Serial.Error;
      EXPECT_EQ(Serial.Events, Written);
      EXPECT_EQ(Serial.HasMemSim, MemSim);
      for (unsigned Threads : {1u, 2u, 4u, 8u})
        for (unsigned Shards : {1u, 2u, 5u, 16u}) {
          SCOPED_TRACE("threads " + std::to_string(Threads) + " shards " +
                       std::to_string(Shards));
          TraceReplayOptions O = Opts;
          O.Threads = Threads;
          O.ProfileShards = Shards;
          const TraceReplayResult R = replayTraceFile(Path, O);
          expectSameReplay(Serial, R);
          EXPECT_EQ(R.Events, Written);
        }
    }
  }
  std::remove(Path.c_str());
}

// Damaged files through the replay entry point, serial and threaded: a
// bad event tag or an out-of-range site in a middle chunk is Corrupt, a
// cut file is Truncated, and none crashes or yields a profile. The site
// damage keeps every byte boundary and load count the index promises, so
// only the decoder's site check stands between it and the profilers'
// per-site tables.
TEST(TraceReplay, DamagedTraceFilesFailTheReplay) {
  constexpr uint32_t NumSites = 41;
  const std::string Path = tmpPath("damaged_replay.sprof.trace");
  ASSERT_EQ(writeIndexedTrace(Path, skewedEvents(6000, NumSites, 9), NumSites,
                              /*IndexInterval=*/100),
            6000u);
  uint64_t MidChunk = 0;
  {
    auto R = TraceReader::openFileIndexed(Path);
    ASSERT_TRUE(R->ok()) << R->error();
    const TraceShardIndex &Idx = R->index();
    ASSERT_GT(Idx.numChunks(), 10u);
    MidChunk = Idx.Chunks[Idx.numChunks() / 2].ByteOffset;
  }
  std::string Data;
  {
    std::ifstream F(Path, std::ios::binary);
    Data.assign(std::istreambuf_iterator<char>(F), {});
  }
  auto WriteFile = [&](const std::string &Bytes) {
    std::ofstream F(Path, std::ios::binary | std::ios::trunc);
    F.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  };

  std::string BadTag = Data;
  BadTag[MidChunk] = static_cast<char>(BadTag[MidChunk] ^ 0x80);
  // The byte after the tag is the one-byte zigzag site delta (|delta| <
  // 41); 0x7e decodes to +63, past the last site.
  std::string BadSite = Data;
  ASSERT_LT(static_cast<uint8_t>(BadSite[MidChunk + 1]), 0x80);
  BadSite[MidChunk + 1] = 0x7e;
  const std::pair<const char *, std::pair<std::string, TraceError>> Cases[] =
      {{"bad tag", {BadTag, TraceError::Corrupt}},
       {"bad site", {BadSite, TraceError::Corrupt}},
       {"cut", {Data.substr(0, Data.size() / 2), TraceError::Truncated}}};
  for (const auto &[Name, Case] : Cases) {
    SCOPED_TRACE(Name);
    WriteFile(Case.first);
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(Threads));
      TraceReplayOptions Opts;
      Opts.EvaluateWorkload = false;
      Opts.Threads = Threads;
      const TraceReplayResult R = replayTraceFile(Path, Opts);
      EXPECT_FALSE(R.Ok);
      EXPECT_EQ(R.ErrorCode, Case.second) << R.Error;
      EXPECT_FALSE(R.Error.empty());
      EXPECT_FALSE(R.HasMemSim);
    }
  }
  std::remove(Path.c_str());
}
