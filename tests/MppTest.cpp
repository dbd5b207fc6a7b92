//===-- tests/MppTest.cpp - message-passing runtime tests -----------------===//

#include "mpp/Runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

using namespace fupermod;

TEST(Runtime, SingleRankRuns) {
  std::atomic<int> Calls{0};
  SpmdResult R = runSpmd(1, [&](Comm &C) {
    EXPECT_EQ(C.rank(), 0);
    EXPECT_EQ(C.size(), 1);
    ++Calls;
  });
  EXPECT_EQ(Calls.load(), 1);
  ASSERT_EQ(R.FinalTimes.size(), 1u);
  EXPECT_DOUBLE_EQ(R.FinalTimes[0], 0.0);
}

TEST(Runtime, EveryRankSeesItsRank) {
  const int P = 6;
  std::vector<int> Seen(P, -1);
  runSpmd(P, [&](Comm &C) { Seen[C.rank()] = C.rank(); });
  for (int I = 0; I < P; ++I)
    EXPECT_EQ(Seen[I], I);
}

TEST(SendRecv, ValueRoundTrip) {
  runSpmd(2, [](Comm &C) {
    if (C.rank() == 0)
      C.sendValue<int>(1, 7, 42);
    else
      EXPECT_EQ(C.recvValue<int>(0, 7), 42);
  });
}

TEST(SendRecv, VectorRoundTrip) {
  runSpmd(2, [](Comm &C) {
    if (C.rank() == 0) {
      std::vector<double> V = {1.5, 2.5, 3.5};
      C.send<double>(1, 3, V);
    } else {
      std::vector<double> V = C.recv<double>(0, 3);
      ASSERT_EQ(V.size(), 3u);
      EXPECT_DOUBLE_EQ(V[1], 2.5);
    }
  });
}

TEST(SendRecv, FifoOrderPerTag) {
  runSpmd(2, [](Comm &C) {
    if (C.rank() == 0) {
      for (int I = 0; I < 10; ++I)
        C.sendValue<int>(1, 5, I);
    } else {
      for (int I = 0; I < 10; ++I)
        EXPECT_EQ(C.recvValue<int>(0, 5), I);
    }
  });
}

TEST(SendRecv, TagsMatchIndependently) {
  runSpmd(2, [](Comm &C) {
    if (C.rank() == 0) {
      C.sendValue<int>(1, 1, 100);
      C.sendValue<int>(1, 2, 200);
    } else {
      // Receive in the opposite order of sending: tag matching must pick
      // the right message regardless of queue position.
      EXPECT_EQ(C.recvValue<int>(0, 2), 200);
      EXPECT_EQ(C.recvValue<int>(0, 1), 100);
    }
  });
}

TEST(SendRecv, InterleavedTagsKeepPerTagFifo) {
  // Regression for the per-tag mailbox queues: two tag streams are
  // interleaved at the sender, drained in opposite orders and at
  // different paces at the receiver. Matching must stay FIFO within
  // each tag and never pay attention to the other tag's backlog.
  runSpmd(2, [](Comm &C) {
    const int N = 64;
    if (C.rank() == 0) {
      for (int I = 0; I < N; ++I) {
        C.sendValue<int>(1, 100, I);
        C.sendValue<int>(1, 200, 1000 + I);
      }
    } else {
      // Drain tag 200 completely first (tag 100's backlog keeps growing),
      // then tag 100, then check both streams arrived in send order.
      for (int I = 0; I < N; ++I)
        EXPECT_EQ(C.recvValue<int>(0, 200), 1000 + I);
      for (int I = 0; I < N; ++I)
        EXPECT_EQ(C.recvValue<int>(0, 100), I);
    }
  });
}

TEST(SendRecv, SelfSendWorks) {
  runSpmd(1, [](Comm &C) {
    C.sendValue<int>(0, 9, 5);
    EXPECT_EQ(C.recvValue<int>(0, 9), 5);
  });
}

TEST(Barrier, SynchronisesClocksToMax) {
  SpmdResult R = runSpmd(4, [](Comm &C) {
    C.compute(static_cast<double>(C.rank())); // Rank r works r seconds.
    C.barrier();
    EXPECT_DOUBLE_EQ(C.time(), 3.0);
  });
  for (double T : R.FinalTimes)
    EXPECT_DOUBLE_EQ(T, 3.0);
}

TEST(Barrier, RepeatedBarriersKeepWorking) {
  runSpmd(3, [](Comm &C) {
    for (int I = 1; I <= 5; ++I) {
      C.compute(C.rank() == 0 ? 1.0 : 0.0);
      C.barrier();
      EXPECT_DOUBLE_EQ(C.time(), static_cast<double>(I));
    }
  });
}

TEST(Bcast, AllRootsAllSizes) {
  for (int P : {1, 2, 3, 5, 8}) {
    for (int Root = 0; Root < P; ++Root) {
      runSpmd(P, [Root](Comm &C) {
        std::vector<int> Data;
        if (C.rank() == Root)
          Data = {Root, 17, 23};
        C.bcast(Data, Root);
        ASSERT_EQ(Data.size(), 3u);
        EXPECT_EQ(Data[0], Root);
        EXPECT_EQ(Data[2], 23);
      });
    }
  }
}

TEST(Gatherv, ConcatenatesInRankOrder) {
  runSpmd(4, [](Comm &C) {
    // Rank r contributes r+1 copies of r.
    std::vector<int> Mine(static_cast<std::size_t>(C.rank() + 1), C.rank());
    std::vector<int> All = C.gatherv(std::span<const int>(Mine), 0);
    if (C.rank() != 0) {
      EXPECT_TRUE(All.empty());
      return;
    }
    std::vector<int> Expected = {0, 1, 1, 2, 2, 2, 3, 3, 3, 3};
    EXPECT_EQ(All, Expected);
  });
}

TEST(Scatterv, DistributesChunks) {
  runSpmd(3, [](Comm &C) {
    std::vector<int> All;
    std::vector<int> Counts = {1, 2, 3};
    if (C.rank() == 0)
      All = {10, 20, 21, 30, 31, 32};
    std::vector<int> Mine =
        C.scatterv(std::span<const int>(All), Counts, 0);
    ASSERT_EQ(Mine.size(), static_cast<std::size_t>(C.rank() + 1));
    EXPECT_EQ(Mine[0], (C.rank() + 1) * 10);
  });
}

TEST(Allgatherv, EveryoneGetsEverything) {
  runSpmd(4, [](Comm &C) {
    std::vector<double> Mine = {static_cast<double>(C.rank())};
    std::vector<double> All = C.allgatherv(std::span<const double>(Mine));
    ASSERT_EQ(All.size(), 4u);
    for (int I = 0; I < 4; ++I)
      EXPECT_DOUBLE_EQ(All[static_cast<std::size_t>(I)],
                       static_cast<double>(I));
  });
}

TEST(Allreduce, SumMaxMin) {
  runSpmd(5, [](Comm &C) {
    double V = static_cast<double>(C.rank() + 1);
    EXPECT_DOUBLE_EQ(C.allreduceValue(V, ReduceOp::Sum), 15.0);
    EXPECT_DOUBLE_EQ(C.allreduceValue(V, ReduceOp::Max), 5.0);
    EXPECT_DOUBLE_EQ(C.allreduceValue(V, ReduceOp::Min), 1.0);
  });
}

TEST(Allreduce, Vectors) {
  runSpmd(3, [](Comm &C) {
    std::vector<double> V = {static_cast<double>(C.rank()), 1.0};
    std::vector<double> R = C.allreduce(V, ReduceOp::Sum);
    ASSERT_EQ(R.size(), 2u);
    EXPECT_DOUBLE_EQ(R[0], 3.0);
    EXPECT_DOUBLE_EQ(R[1], 3.0);
  });
}

TEST(Split, GroupsByColorOrderedByKey) {
  runSpmd(6, [](Comm &C) {
    int Color = C.rank() % 2;
    int Key = -C.rank(); // Reverse order inside each group.
    Comm Sub = C.split(Color, Key);
    EXPECT_EQ(Sub.size(), 3);
    // Ranks 4, 2, 0 (even) and 5, 3, 1 (odd) in key order.
    int ExpectedRank = (5 - C.rank()) / 2;
    EXPECT_EQ(Sub.rank(), ExpectedRank);
    EXPECT_EQ(Sub.globalRank(), C.rank());
    // The subgroup is a fully functional communicator.
    double Sum = Sub.allreduceValue(static_cast<double>(C.rank()),
                                    ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(Sum, Color == 0 ? 6.0 : 9.0);
  });
}

TEST(Split, RepeatedSplitsWork) {
  runSpmd(4, [](Comm &C) {
    for (int Round = 0; Round < 3; ++Round) {
      Comm Sub = C.split(C.rank() / 2, C.rank());
      EXPECT_EQ(Sub.size(), 2);
      Sub.barrier();
    }
  });
}

TEST(VirtualTime, SendChargesLatencyAndTransfer) {
  auto Cost = std::make_shared<UniformCostModel>(/*Latency=*/0.5,
                                                 /*BytesPerSecond=*/100.0);
  runSpmd(2,
          [](Comm &C) {
            if (C.rank() == 0) {
              std::vector<std::byte> Data(200); // 2 seconds of transfer.
              C.sendBytes(1, 1, Data);
              // The sender only pays the injection latency.
              EXPECT_DOUBLE_EQ(C.time(), 0.5);
            } else {
              C.recvBytes(0, 1);
              // The receiver waits for the full transfer: 0.5 + 200/100.
              EXPECT_DOUBLE_EQ(C.time(), 2.5);
            }
          },
          Cost);
}

TEST(VirtualTime, ReceiverNotRewoundWhenMessageIsOld) {
  auto Cost = std::make_shared<UniformCostModel>(0.1, 1e9);
  runSpmd(2,
          [](Comm &C) {
            if (C.rank() == 0) {
              C.sendValue<int>(1, 1, 1);
            } else {
              C.compute(100.0); // Receiver is far in the future.
              C.recvBytes(0, 1);
              EXPECT_DOUBLE_EQ(C.time(), 100.0);
            }
          },
          Cost);
}

TEST(VirtualTime, TwoLevelModelDistinguishesIntraInter) {
  std::vector<int> NodeOf = {0, 0, 1};
  LinkCost Intra{0.0, 1.0 / 1000.0};
  LinkCost Inter{0.0, 1.0 / 10.0};
  auto Cost = std::make_shared<TwoLevelCostModel>(NodeOf, Intra, Inter);
  runSpmd(3,
          [](Comm &C) {
            std::vector<std::byte> Data(10);
            if (C.rank() == 0) {
              C.sendBytes(1, 1, Data); // Intra: 10/1000 = 0.01 s.
              C.sendBytes(2, 2, Data); // Inter: 10/10 = 1 s.
            } else if (C.rank() == 1) {
              C.recvBytes(0, 1);
              EXPECT_NEAR(C.time(), 0.01, 1e-12);
            } else {
              C.recvBytes(0, 2);
              EXPECT_NEAR(C.time(), 1.0, 1e-12);
            }
          },
          Cost);
}

TEST(VirtualTime, DeterministicAcrossRuns) {
  auto Cost = std::make_shared<UniformCostModel>(1e-4, 1e8);
  auto Body = [](Comm &C) {
    for (int I = 0; I < 5; ++I) {
      std::vector<double> V(100, static_cast<double>(C.rank()));
      std::vector<double> All = C.allgatherv(std::span<const double>(V));
      C.compute(0.001 * (C.rank() + 1));
      C.barrier();
    }
  };
  SpmdResult A = runSpmd(4, Body, Cost);
  SpmdResult B = runSpmd(4, Body, Cost);
  ASSERT_EQ(A.FinalTimes.size(), B.FinalTimes.size());
  for (std::size_t I = 0; I < A.FinalTimes.size(); ++I)
    EXPECT_DOUBLE_EQ(A.FinalTimes[I], B.FinalTimes[I]);
}

TEST(VirtualTime, MakespanIsMaxFinalTime) {
  SpmdResult R = runSpmd(3, [](Comm &C) {
    C.compute(static_cast<double>(C.rank()) * 2.0);
  });
  EXPECT_DOUBLE_EQ(R.makespan(), 4.0);
}

// Property: a ring exchange of P ranks delivers every payload intact.
class RingTest : public ::testing::TestWithParam<int> {};

TEST_P(RingTest, RingExchange) {
  int P = GetParam();
  runSpmd(P, [P](Comm &C) {
    int Next = (C.rank() + 1) % P;
    int Prev = (C.rank() + P - 1) % P;
    C.sendValue<int>(Next, 11, C.rank() * 10);
    EXPECT_EQ(C.recvValue<int>(Prev, 11), Prev * 10);
  });
}

INSTANTIATE_TEST_SUITE_P(RingSizes, RingTest,
                         ::testing::Values(2, 3, 4, 7, 12));

TEST(AllgathervRing, MatchesLinearAlgorithm) {
  for (int P : {1, 2, 3, 5, 8}) {
    runSpmd(P, [](Comm &C) {
      // Ragged contributions: rank r supplies r+1 values 100*r + i.
      std::vector<int> Mine;
      for (int I = 0; I <= C.rank(); ++I)
        Mine.push_back(100 * C.rank() + I);
      std::vector<int> Ring =
          C.allgathervRing(std::span<const int>(Mine));
      std::vector<int> Linear = C.allgatherv(std::span<const int>(Mine));
      EXPECT_EQ(Ring, Linear) << "P=" << C.size();
    });
  }
}

TEST(AllgathervRing, CheaperThanTreeForLargePayloads) {
  // Each chunk crosses every link once in the ring, so for payloads that
  // dwarf the latency the ring beats gather + binomial broadcast (which
  // moves the full payload log(P) times along the critical path).
  auto Cost = std::make_shared<UniformCostModel>(/*Latency=*/1e-6,
                                                 /*BytesPerSecond=*/1e9);
  const int P = 8;
  const std::size_t ChunkDoubles = 1 << 16; // 512 KiB per rank.

  double RingTime = 0.0, TreeTime = 0.0;
  runSpmd(P,
          [&](Comm &C) {
            std::vector<double> Mine(ChunkDoubles, 1.0);
            C.allgathervRing(std::span<const double>(Mine));
            C.barrier();
            if (C.rank() == 0)
              RingTime = C.time();
          },
          Cost);
  runSpmd(P,
          [&](Comm &C) {
            std::vector<double> Mine(ChunkDoubles, 1.0);
            C.allgatherv(std::span<const double>(Mine));
            C.barrier();
            if (C.rank() == 0)
              TreeTime = C.time();
          },
          Cost);
  EXPECT_LT(RingTime, TreeTime);
}

// --- Failure propagation: a dead rank poisons its world so survivors
// get a clean CommError instead of deadlocking in a collective. ---

TEST(Poison, BarrierDoesNotDeadlockWhenOneRankDies) {
  // Rank 0 dies before ever entering the barrier; ranks 1 and 2 would
  // historically wait forever. Every survivor must observe a CommError
  // naming the dead rank, and the whole test must terminate.
  SpmdResult R = runSpmd(3, [](Comm &C) {
    if (C.rank() == 0)
      throw std::runtime_error("gpu fell off the bus");
    try {
      for (;;)
        C.barrier();
    } catch (const CommError &E) {
      EXPECT_EQ(E.failedRank(), 0);
      throw; // Let runSpmd record the secondary failure too.
    }
  });
  EXPECT_FALSE(R.allOk());
  EXPECT_EQ(R.firstFailedRank(), 0);
  ASSERT_EQ(R.Ranks.size(), 3u);
  EXPECT_EQ(R.Ranks[0].Error, "gpu fell off the bus");
  // Survivors report the propagated failure, attributed to rank 0.
  EXPECT_NE(R.Ranks[1].Error.find("rank 0 failed"), std::string::npos);
  EXPECT_NE(R.Ranks[2].Error.find("rank 0 failed"), std::string::npos);
}

TEST(Poison, RecvFromDeadRankThrows) {
  runSpmd(2, [](Comm &C) {
    if (C.rank() == 1)
      throw std::runtime_error("boom");
    EXPECT_THROW(C.recvValue<int>(1, 4), CommError);
  });
}

TEST(Poison, QueuedMessagesStillDeliveredAfterDeath) {
  // Rank 0 sends, then dies. The queued message must still be received;
  // only the *next* receive (which can never be satisfied) throws.
  SpmdResult R = runSpmd(2, [](Comm &C) {
    if (C.rank() == 0) {
      C.sendValue<int>(1, 7, 42);
      throw std::runtime_error("died after send");
    }
    EXPECT_EQ(C.recvValue<int>(0, 7), 42);
    EXPECT_THROW(C.recvValue<int>(0, 7), CommError);
  });
  // An exception out of the receive would end rank 1's body instead.
  EXPECT_TRUE(R.Ranks[1].Ok) << R.Ranks[1].Error;
}

TEST(Poison, PostedReceiveFilledBeforeDeathIsStillDelivered) {
  // Rank 1 fills rank 0's posted receive, then dies. The message reached
  // the receive before the failure, so waiting on it after the world is
  // poisoned still returns it.
  int Got = 0;
  SpmdResult R = runSpmd(2, [&](Comm &C) {
    if (C.rank() == 1) {
      C.barrier();
      C.sendValue<int>(0, 5, 42);
      throw std::runtime_error("died after send");
    }
    RecvRequest Req = C.irecv(1, 5);
    C.barrier();
    // Rank 1 never enters this barrier: it throws once the send is done.
    EXPECT_THROW(C.barrier(), CommError);
    Got = Req.wait().toVector<int>().at(0);
  });
  EXPECT_TRUE(R.Ranks[0].Ok) << R.Ranks[0].Error;
  EXPECT_EQ(Got, 42);
}

TEST(Poison, PendingReceiveThrowsWhenAnotherRankDies) {
  // Nobody sends to rank 0's posted receive; rank 2's death must end
  // the wait with a CommError naming rank 2.
  int FailedRank = -1;
  SpmdResult R = runSpmd(3, [&](Comm &C) {
    if (C.rank() == 2)
      throw std::runtime_error("late fatal");
    if (C.rank() != 0)
      return;
    RecvRequest Req = C.irecv(1, 5);
    try {
      Req.wait();
    } catch (const CommError &E) {
      FailedRank = E.failedRank();
    }
  });
  EXPECT_TRUE(R.Ranks[0].Ok) << R.Ranks[0].Error;
  EXPECT_EQ(FailedRank, 2);
}

TEST(Poison, ExplicitAbortPoisonsTheWorld) {
  SpmdResult R = runSpmd(3, [](Comm &C) {
    if (C.rank() == 2) {
      C.abort("device evicted");
      return; // Simulated process exit.
    }
    try {
      for (;;)
        C.barrier();
    } catch (const CommError &E) {
      EXPECT_EQ(E.failedRank(), 2);
      EXPECT_NE(std::string(E.what()).find("device evicted"),
                std::string::npos);
    }
    EXPECT_TRUE(C.poisoned());
  });
  // abort() marks the world, not the caller: rank 2 itself returned
  // normally, the survivors caught and handled the CommError.
  EXPECT_TRUE(R.allOk());
}

TEST(Poison, SpreadsIntoSubgroupsAfterSplit) {
  // Split {0,1} / {2,3}; rank 3 then dies. Both subgroups share the
  // world's poison state, so ranks blocked on the *other* subgroup's
  // barrier must also unblock with a CommError.
  runSpmd(4, [](Comm &C) {
    Comm Sub = C.split(C.rank() / 2, C.rank());
    if (C.rank() == 3)
      throw std::runtime_error("late fatal");
    try {
      for (;;)
        Sub.barrier();
    } catch (const CommError &E) {
      EXPECT_EQ(E.failedRank(), 3);
    }
  });
}

TEST(Poison, CollectivesOnPoisonedWorldFailFast) {
  runSpmd(3, [](Comm &C) {
    if (C.rank() == 1)
      throw std::runtime_error("early exit");
    // Wait until the poison is visible, then every collective and
    // point-to-point entry point must throw instead of blocking.
    try {
      for (;;)
        C.barrier();
    } catch (const CommError &) {
    }
    std::vector<double> V = {1.0};
    EXPECT_THROW(C.allreduceValue(1.0, ReduceOp::Sum), CommError);
    EXPECT_THROW(C.allgatherv(std::span<const double>(V)), CommError);
    EXPECT_THROW(C.sendValue<int>((C.rank() + 1) % 3, 9, 1), CommError);
    EXPECT_THROW(C.split(0, C.rank()), CommError);
  });
}

TEST(SendRecv, PairedExchange) {
  runSpmd(4, [](Comm &C) {
    int P = C.size();
    int Right = (C.rank() + 1) % P;
    int Left = (C.rank() + P - 1) % P;
    std::vector<int> Payload = {C.rank() * 7};
    std::vector<int> Got =
        C.sendrecv(Right, 21, std::span<const int>(Payload), Left, 21);
    ASSERT_EQ(Got.size(), 1u);
    EXPECT_EQ(Got[0], Left * 7);
  });
}

TEST(Runtime, RejectsNonPositiveRankCounts) {
  auto Body = [](Comm &) {};
  EXPECT_THROW(runSpmd(0, Body), std::invalid_argument);
  EXPECT_THROW(runSpmd(-3, Body), std::invalid_argument);
  try {
    runSpmd(0, Body);
    FAIL() << "runSpmd(0) did not throw";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find("NumRanks"), std::string::npos);
  }
}

TEST(SendRecv, RecvValueOnEmptyPayloadThrows) {
  runSpmd(2, [](Comm &C) {
    if (C.rank() == 0) {
      std::vector<int> Empty;
      C.send<int>(1, 5, std::span<const int>(Empty));
    } else {
      try {
        (void)C.recvValue<int>(0, 5);
        FAIL() << "recvValue on an empty payload did not throw";
      } catch (const CommError &E) {
        EXPECT_EQ(E.failedRank(), 0);
        EXPECT_NE(std::string(E.what()).find("empty payload"),
                  std::string::npos);
      }
    }
  });
}

TEST(Bcast, BcastValueOnEmptyRootPayloadThrows) {
  SpmdResult R = runSpmd(2, [](Comm &C) {
    if (C.rank() == 0) {
      std::vector<int> Empty;
      C.bcast(Empty, 0);
    } else {
      int V = 7;
      EXPECT_THROW(C.bcastValue(V, 0), CommError);
    }
    // The error is reported to the caller, not turned into a poisoned
    // world: the group must still be usable.
    C.barrier();
  });
  EXPECT_TRUE(R.allOk());
}

TEST(Payload, SubviewOfAnAdoptedArrayOutlivesThePayload) {
  // Storage allocated uninitialised, written once and adopted without a
  // copy; a view of part of it keeps the storage alive on its own.
  const std::size_t Count = 64;
  std::unique_ptr<double[]> Data =
      std::make_unique_for_overwrite<double[]>(Count);
  for (std::size_t I = 0; I < Count; ++I)
    Data[I] = 0.5 * static_cast<double>(I) - 3.0;
  const auto *Storage = reinterpret_cast<const std::byte *>(Data.get());
  Payload View;
  {
    Payload All = Payload::adopt(std::move(Data), Count);
    EXPECT_EQ(All.bytes().data(), Storage);
    EXPECT_EQ(All.size(), Count * sizeof(double));
    View = All.subview(8 * sizeof(double), 16 * sizeof(double));
    EXPECT_TRUE(All.sharedBuffer());
  }
  EXPECT_FALSE(View.sharedBuffer());
  EXPECT_EQ(View.bytes().data(), Storage + 8 * sizeof(double));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(View.bytes().data()) %
                alignof(double),
            0u);
  std::span<const double> Values = View.as<double>();
  ASSERT_EQ(Values.size(), 16u);
  for (std::size_t I = 0; I < Values.size(); ++I)
    EXPECT_EQ(Values[I], 0.5 * static_cast<double>(I + 8) - 3.0) << I;
}
