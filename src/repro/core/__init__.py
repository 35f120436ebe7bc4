"""Core numerical machinery shared by the GMM and NN reproductions.

Contains the parameter containers, the block linear algebra implementing the
paper's factorized decompositions (Eq. 7-24), single-node reference trainers
used as ground truth by the test suite, and the generic flat-statistics
aggregation layer that turns a Spark ``mapInArrow`` pass into a NumPy
sufficient-statistics reduction.
"""
