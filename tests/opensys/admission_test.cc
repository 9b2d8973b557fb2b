#include "src/opensys/admission.h"

#include <gtest/gtest.h>

namespace affsched {
namespace {

TEST(AdmissionTest, UnboundedAdmitsEverything) {
  const AdmissionController admission(0, -1);
  EXPECT_EQ(admission.OnArrival(0, 0), AdmissionVerdict::kAdmit);
  EXPECT_EQ(admission.OnArrival(1000, 1000), AdmissionVerdict::kAdmit);
  EXPECT_TRUE(admission.CanAdmitQueued(1000));
  EXPECT_EQ(admission.Name(), "unbounded");
  // Without a cap the queue bound plays no part.
  const AdmissionController bounded_queue(0, 0);
  EXPECT_EQ(bounded_queue.OnArrival(1000, 1000), AdmissionVerdict::kAdmit);
  EXPECT_TRUE(bounded_queue.CanAdmitQueued(1000));
  EXPECT_EQ(bounded_queue.Name(), "unbounded");
}

TEST(AdmissionTest, FixedMplQueuesAtCap) {
  const AdmissionController admission(2, -1);
  EXPECT_EQ(admission.OnArrival(0, 0), AdmissionVerdict::kAdmit);
  EXPECT_EQ(admission.OnArrival(1, 0), AdmissionVerdict::kAdmit);
  EXPECT_EQ(admission.OnArrival(2, 0), AdmissionVerdict::kQueue);
  EXPECT_EQ(admission.OnArrival(2, 50), AdmissionVerdict::kQueue);  // never rejects
  EXPECT_FALSE(admission.CanAdmitQueued(2));
  EXPECT_TRUE(admission.CanAdmitQueued(1));
  EXPECT_EQ(admission.Name(), "mpl-2");
}

TEST(AdmissionTest, LoadSheddingRejectsWhenQueueFull) {
  const AdmissionController admission(1, 2);
  EXPECT_EQ(admission.OnArrival(0, 0), AdmissionVerdict::kAdmit);
  EXPECT_EQ(admission.OnArrival(1, 0), AdmissionVerdict::kQueue);
  EXPECT_EQ(admission.OnArrival(1, 1), AdmissionVerdict::kQueue);
  EXPECT_EQ(admission.OnArrival(1, 2), AdmissionVerdict::kReject);
  EXPECT_FALSE(admission.CanAdmitQueued(1));
  EXPECT_TRUE(admission.CanAdmitQueued(0));
  EXPECT_EQ(admission.Name(), "shed-1-q2");
}

TEST(AdmissionTest, LoadSheddingWithZeroQueueRejectsImmediately) {
  const AdmissionController admission(1, 0);
  EXPECT_EQ(admission.OnArrival(0, 0), AdmissionVerdict::kAdmit);
  EXPECT_EQ(admission.OnArrival(1, 0), AdmissionVerdict::kReject);
  EXPECT_EQ(admission.Name(), "shed-1-q0");
}

TEST(AdmissionTest, FactorySelectsPolicyFromKnobs) {
  EXPECT_EQ(MakeAdmissionController(0, -1)->Name(), "unbounded");
  EXPECT_EQ(MakeAdmissionController(0, 5)->Name(), "unbounded");  // cap 0 wins
  EXPECT_EQ(MakeAdmissionController(4, -1)->Name(), "mpl-4");
  EXPECT_EQ(MakeAdmissionController(4, 8)->Name(), "shed-4-q8");
  EXPECT_EQ(MakeAdmissionController(4, 0)->Name(), "shed-4-q0");
}

}  // namespace
}  // namespace affsched
