"""Bit-identical enumerator output on a fixed corpus of presentations.

Each entry pins the index and the sha256 of ``repr(table.rows)`` for the
standardized HLT table of one presentation.  The digests were generated
by the enumerator as it stood before HLT scanned cyclic conjugates of
the relators and skipped, after a lookahead, the relators already
closed (after power-relator reduction had landed), and they must not
change: standardized tables are canonical, so an enumerator change
that only changes the work spent leaves every digest as it is.  A
failure here means that a complete table changed.

The corpus is every finite G_n(k,l) with 2 <= n <= 8 as the extension
E = (a, x : a^n, x a^k x a^{l-k} x a^{-l}) over <a>, the n = 18 evidence
group K = (b, u : b^6, u u b^3 u b^2) over 1 and over <b>, the F(2,5)
extension over <a>, and the extensions of G_11(0,1), G_12(0,1) and
G_12(8,5) over <a>.

A second corpus pins what a capped run returns: status, cosets defined,
count and the sha256 of ``repr(table.rows)`` for eleven extensions
enumerated at ``max_cosets=3000``, three of them complete (they needed
lookahead before ``todd_coxeter`` enumerated the shortest relabelling)
and eight undecided, G_12(11,11) among them.  An overflow table is not
canonical, so these pin the enumerator's exact behaviour, not only its
answers; they were generated once HLT scanned power relators for
deductions only and proved them closed in a final sweep, so a change in
the work done must move them.  The complete tables' digests are older
than that and did not move with it.
"""

import hashlib
from dataclasses import replace

import pytest

from cycpres.cyclic import gnkl
from cycpres.enumerate import parse_presentation, todd_coxeter
from cycpres.relative import lift, to_relative
from cycpres.taxonomy import classify
from cycpres.words import parse_word

K_TEXT = """\
gens: b u
rels:
b^6
u u b^3 u b^2
sub:
b
"""

DIGESTS = {
    "G_2(0,1)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_2(1,0)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_2(1,1)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_3(0,1)": (9, "f0e9ed7da4a741257462299688bdc5cff673d5808151ac0c8f7ab80052211caa"),
    "G_3(0,2)": (9, "a1981134aff35ba3dad321ee0ec9f20b19e9d378f5a09794a9cf440d477c8fec"),
    "G_3(1,0)": (9, "f0e9ed7da4a741257462299688bdc5cff673d5808151ac0c8f7ab80052211caa"),
    "G_3(1,1)": (9, "a1981134aff35ba3dad321ee0ec9f20b19e9d378f5a09794a9cf440d477c8fec"),
    "G_3(2,0)": (9, "a1981134aff35ba3dad321ee0ec9f20b19e9d378f5a09794a9cf440d477c8fec"),
    "G_3(2,2)": (9, "f0e9ed7da4a741257462299688bdc5cff673d5808151ac0c8f7ab80052211caa"),
    "G_4(0,1)": (15, "95b9b89ed4a16ab900861e257d21db05300b44ee3f169c1953121288231a82db"),
    "G_4(0,3)": (15, "e4d8570fd7ddc22527aec427fb7b682bb9c8a8f19135c60719e2b9fc99126471"),
    "G_4(1,0)": (15, "95b9b89ed4a16ab900861e257d21db05300b44ee3f169c1953121288231a82db"),
    "G_4(1,1)": (15, "e4d8570fd7ddc22527aec427fb7b682bb9c8a8f19135c60719e2b9fc99126471"),
    "G_4(1,2)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_4(1,3)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_4(2,1)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_4(2,3)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_4(3,0)": (15, "e4d8570fd7ddc22527aec427fb7b682bb9c8a8f19135c60719e2b9fc99126471"),
    "G_4(3,1)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_4(3,2)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_4(3,3)": (15, "95b9b89ed4a16ab900861e257d21db05300b44ee3f169c1953121288231a82db"),
    "G_5(0,1)": (33, "f59d6537b28254830dc1afa21586ed47a069549bd2061c5a9249e90ea332190c"),
    "G_5(0,2)": (33, "f75622c5e9d793cc0e4338dc4922bad2721f63da3a678220b6cee6bdbf6d23c9"),
    "G_5(0,3)": (33, "df331c84e5089a7c3ee7d23f81f131cc6ce61efefa9df47718290f04cb5e89eb"),
    "G_5(0,4)": (33, "2c17c7f15ab20598ace6b8fd8733685afdf75551d3f823ee588a644384a370e5"),
    "G_5(1,0)": (33, "f59d6537b28254830dc1afa21586ed47a069549bd2061c5a9249e90ea332190c"),
    "G_5(1,1)": (33, "2c17c7f15ab20598ace6b8fd8733685afdf75551d3f823ee588a644384a370e5"),
    "G_5(1,2)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_5(1,3)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_5(1,4)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_5(2,0)": (33, "f75622c5e9d793cc0e4338dc4922bad2721f63da3a678220b6cee6bdbf6d23c9"),
    "G_5(2,1)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_5(2,2)": (33, "df331c84e5089a7c3ee7d23f81f131cc6ce61efefa9df47718290f04cb5e89eb"),
    "G_5(2,3)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_5(2,4)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_5(3,0)": (33, "df331c84e5089a7c3ee7d23f81f131cc6ce61efefa9df47718290f04cb5e89eb"),
    "G_5(3,1)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_5(3,2)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_5(3,3)": (33, "f75622c5e9d793cc0e4338dc4922bad2721f63da3a678220b6cee6bdbf6d23c9"),
    "G_5(3,4)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_5(4,0)": (33, "2c17c7f15ab20598ace6b8fd8733685afdf75551d3f823ee588a644384a370e5"),
    "G_5(4,1)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_5(4,2)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_5(4,3)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_5(4,4)": (33, "f59d6537b28254830dc1afa21586ed47a069549bd2061c5a9249e90ea332190c"),
    "G_6(0,1)": (63, "4df722422b9135bb13ef75338244f03601f7e4c0fe17eb69e77a1541ed1b86bf"),
    "G_6(0,5)": (63, "fb75ec3853fb60d77c2f10fe3c513214cee59023669afb709446fe45bfde5472"),
    "G_6(1,0)": (63, "4df722422b9135bb13ef75338244f03601f7e4c0fe17eb69e77a1541ed1b86bf"),
    "G_6(1,1)": (63, "fb75ec3853fb60d77c2f10fe3c513214cee59023669afb709446fe45bfde5472"),
    "G_6(1,3)": (63, "262bf2a9d2af882605e4d3f3a23402f86962698a37b72d0e0f466bddb13da75a"),
    "G_6(1,4)": (63, "1421a32ef9993a398fcd3ae2e291203d944559a85fa2f464e0963c041ddface4"),
    "G_6(2,3)": (63, "1421a32ef9993a398fcd3ae2e291203d944559a85fa2f464e0963c041ddface4"),
    "G_6(2,5)": (63, "262bf2a9d2af882605e4d3f3a23402f86962698a37b72d0e0f466bddb13da75a"),
    "G_6(3,1)": (63, "8ca28dbc305fa24dd20d2d2ec402d6a66078c775d66823b1ba2c7c0450c17b2f"),
    "G_6(3,2)": (63, "1ea0e45cc402e68be0157cf049b6c5577e532b50d054d2021c178e0c776f417c"),
    "G_6(3,4)": (63, "262bf2a9d2af882605e4d3f3a23402f86962698a37b72d0e0f466bddb13da75a"),
    "G_6(3,5)": (63, "1421a32ef9993a398fcd3ae2e291203d944559a85fa2f464e0963c041ddface4"),
    "G_6(4,1)": (63, "1ea0e45cc402e68be0157cf049b6c5577e532b50d054d2021c178e0c776f417c"),
    "G_6(4,3)": (63, "8ca28dbc305fa24dd20d2d2ec402d6a66078c775d66823b1ba2c7c0450c17b2f"),
    "G_6(5,0)": (63, "fb75ec3853fb60d77c2f10fe3c513214cee59023669afb709446fe45bfde5472"),
    "G_6(5,2)": (63, "8ca28dbc305fa24dd20d2d2ec402d6a66078c775d66823b1ba2c7c0450c17b2f"),
    "G_6(5,3)": (63, "1ea0e45cc402e68be0157cf049b6c5577e532b50d054d2021c178e0c776f417c"),
    "G_6(5,5)": (63, "4df722422b9135bb13ef75338244f03601f7e4c0fe17eb69e77a1541ed1b86bf"),
    "G_7(0,1)": (129, "f5f22d526a8d02640cc132ea9ca091900bd5d0cab51ebbad6ac84616f1d9091e"),
    "G_7(0,2)": (129, "97a791e2bacbfc4fce893287c00bc9bc9c028734858cf784d5c2fd87c715c2c0"),
    "G_7(0,3)": (129, "6fd900256e2f111c6d57829d74d80f1f326fe094af97d325b35cd4c9a2356fe4"),
    "G_7(0,4)": (129, "84c69b2c0bdfd3fb1f5c3d9da496abbb41a5e4a523c61d5461a2a4d692a26360"),
    "G_7(0,5)": (129, "252b74a2009bcf577f281325609d1b757f15a367aa83f1658b9eaeb06acc15f4"),
    "G_7(0,6)": (129, "a8829837c8af49bb63b8d968ebf4cc6189f6bfae8567407fe334c2d3672d49a7"),
    "G_7(1,0)": (129, "f5f22d526a8d02640cc132ea9ca091900bd5d0cab51ebbad6ac84616f1d9091e"),
    "G_7(1,1)": (129, "a8829837c8af49bb63b8d968ebf4cc6189f6bfae8567407fe334c2d3672d49a7"),
    "G_7(1,2)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_7(1,4)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_7(1,6)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_7(2,0)": (129, "97a791e2bacbfc4fce893287c00bc9bc9c028734858cf784d5c2fd87c715c2c0"),
    "G_7(2,1)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_7(2,2)": (129, "252b74a2009bcf577f281325609d1b757f15a367aa83f1658b9eaeb06acc15f4"),
    "G_7(2,4)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_7(2,5)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_7(3,0)": (129, "6fd900256e2f111c6d57829d74d80f1f326fe094af97d325b35cd4c9a2356fe4"),
    "G_7(3,3)": (129, "84c69b2c0bdfd3fb1f5c3d9da496abbb41a5e4a523c61d5461a2a4d692a26360"),
    "G_7(3,4)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_7(3,5)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_7(3,6)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_7(4,0)": (129, "84c69b2c0bdfd3fb1f5c3d9da496abbb41a5e4a523c61d5461a2a4d692a26360"),
    "G_7(4,1)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_7(4,2)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_7(4,3)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_7(4,4)": (129, "6fd900256e2f111c6d57829d74d80f1f326fe094af97d325b35cd4c9a2356fe4"),
    "G_7(5,0)": (129, "252b74a2009bcf577f281325609d1b757f15a367aa83f1658b9eaeb06acc15f4"),
    "G_7(5,2)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_7(5,3)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_7(5,5)": (129, "97a791e2bacbfc4fce893287c00bc9bc9c028734858cf784d5c2fd87c715c2c0"),
    "G_7(5,6)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_7(6,0)": (129, "a8829837c8af49bb63b8d968ebf4cc6189f6bfae8567407fe334c2d3672d49a7"),
    "G_7(6,1)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_7(6,3)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_7(6,5)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_7(6,6)": (129, "f5f22d526a8d02640cc132ea9ca091900bd5d0cab51ebbad6ac84616f1d9091e"),
    "G_8(0,1)": (255, "dbe9f9ed9387c3c955dcdcec9a22bc7d1b5b1eab5b417b6b6106c1fe033a2d8e"),
    "G_8(0,3)": (255, "5fd66c8c3c1656f4d24d207be59567c9f533233d0811adfef350c55cdafc3e26"),
    "G_8(0,5)": (255, "06ae2ae5f6c0e181eff320513c3494a2b1b6883694f473f727570b72dae7e974"),
    "G_8(0,7)": (255, "b3d3b5c894dde4f37d31e13b00be64f8ecf8b7023d776279c2eeae3f72bbb5c5"),
    "G_8(1,0)": (255, "dbe9f9ed9387c3c955dcdcec9a22bc7d1b5b1eab5b417b6b6106c1fe033a2d8e"),
    "G_8(1,1)": (255, "b3d3b5c894dde4f37d31e13b00be64f8ecf8b7023d776279c2eeae3f72bbb5c5"),
    "G_8(1,2)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_8(1,7)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_8(2,1)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_8(2,5)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_8(3,0)": (255, "5fd66c8c3c1656f4d24d207be59567c9f533233d0811adfef350c55cdafc3e26"),
    "G_8(3,3)": (255, "06ae2ae5f6c0e181eff320513c3494a2b1b6883694f473f727570b72dae7e974"),
    "G_8(3,5)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_8(3,6)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_8(5,0)": (255, "06ae2ae5f6c0e181eff320513c3494a2b1b6883694f473f727570b72dae7e974"),
    "G_8(5,2)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_8(5,3)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_8(5,5)": (255, "5fd66c8c3c1656f4d24d207be59567c9f533233d0811adfef350c55cdafc3e26"),
    "G_8(6,3)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_8(6,7)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_8(7,0)": (255, "b3d3b5c894dde4f37d31e13b00be64f8ecf8b7023d776279c2eeae3f72bbb5c5"),
    "G_8(7,1)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_8(7,6)": (3, "c1ae10b84f0e0f8e427e499ff8a74349bc3a5da6f72e43e5385679d8cf28f8f8"),
    "G_8(7,7)": (255, "dbe9f9ed9387c3c955dcdcec9a22bc7d1b5b1eab5b417b6b6106c1fe033a2d8e"),
    "K over 1": (342, "37cdcc8af94d865adbbce9cee71b2f48c3b88f4aeeaa51006cb189e9430900e4"),
    "K over <b>": (57, "3f7faba58f07d96e4d857aadc01e5cf5472535034aa57c787f4430e22ee7d9ce"),
    "F(2,5)": (11, "8a26186bb855575b0b04d4d25ef0bcd450efd005b18f6c14ef07365a0f69b52e"),
    "G_11(0,1)": (2049, "3ca2b6c3e08fdcd0bea46237acbbadb83501c6e3214290556e7bf5e99894186f"),
    "G_12(0,1)": (4095, "b5786d9b4fb7ff7307f69fc2b0caf32ddc53469a0e15fabbd1e84f3633dc84b5"),
    "G_12(8,5)": (4095, "89527484955061703740ebc62d4a235baabed8a34fb63d3437375e672c40bb83"),
}

CAPPED_DIGESTS = {
    # complete
    (10, 0, 3): ("complete", 1094, 1023, "a813b1c8c92c29c8491b2dcc9b76c883ffcda46f353a348f7ddde9e24199c12a"),
    (11, 0, 2): ("complete", 2220, 2049, "737eeb7a7dc77c0c0da07c74aa7a4250f2019652f00b975b87972bcc8e616d15"),
    (11, 5, 5): ("complete", 2221, 2049, "1a381b268d95dd1719bce283119bde9f6918d7f7b1a9d77b4ca0d8b24224f2ea"),
    # undecided: finite, then infinite
    (12, 11, 11): ("overflow", 3000, 2903, "e65ea6e60f49656cd22e1a66136dca1c109cba060d53ae61da83cf5abb7ee939"),
    (12, 8, 5): ("overflow", 3000, 2916, "9f35f787ec51460ad20a3caf1a80a1ed5122ef3e4e200ab4eca8ec2019b8bc26"),
    (12, 4, 5): ("overflow", 3000, 2950, "51155a64c6ad2c119e3eef212a432da7f4df9461c5bb914c679a8b98fd46d60d"),
    (14, 2, 4): ("overflow", 3000, 3000, "194f4ab53435462dbe402099d15d38e1948f027d7fc699f50c5b64d52cf3ef5b"),
    (16, 5, 8): ("overflow", 3000, 3000, "e8b76c001190e6d24b2fcc72ea5c1d6567214304d9aac63ebdb66f096f5ab223"),
    (18, 10, 5): ("overflow", 3000, 2572, "586546ea751b03bc2cd4f26852e0c9818c3479e6bbc454fce2c54bf6438f9a77"),
    (9, 8, 4): ("overflow", 3000, 2572, "47eb19bfda0e421cdd592c6ae81765bbba27a5266d5662b672c072fe810b8152"),
    (15, 14, 1): ("overflow", 3000, 2251, "bc347bcf1c30d3243303ac583fee5595f2e49c003b8f567cb498b213a96bcb9b"),
}


def extension(word, n):
    return replace(lift(to_relative(word, n), n), subgroup=((1,),))


def corpus():
    pres = {}
    for n in range(2, 9):
        for k in range(n):
            for l in range(n):
                if classify(n, k, l).finite:
                    pres[f"G_{n}({k},{l})"] = extension(gnkl(n, k, l).word, n)
    k_group = parse_presentation(K_TEXT)
    pres["K over 1"] = replace(k_group, subgroup=())
    pres["K over <b>"] = k_group
    pres["F(2,5)"] = extension(parse_word("x0 x1 X2", 5), 5)
    for n, k, l in ((11, 0, 1), (12, 0, 1), (12, 8, 5)):
        pres[f"G_{n}({k},{l})"] = extension(gnkl(n, k, l).word, n)
    return pres


CORPUS = corpus()


def test_corpus_is_the_pinned_one():
    assert sorted(CORPUS) == sorted(DIGESTS)
    assert sum(name.startswith("G_") for name in CORPUS) == 123 + 3


@pytest.mark.parametrize("name", list(DIGESTS))
def test_table_digest(name):
    table = todd_coxeter(CORPUS[name])
    assert table.complete
    digest = hashlib.sha256(repr(table.rows).encode()).hexdigest()
    assert (table.count, digest) == DIGESTS[name]


@pytest.mark.parametrize("triple", list(CAPPED_DIGESTS), ids=str)
def test_capped_table_digest(triple):
    n, k, l = triple
    table = todd_coxeter(extension(gnkl(n, k, l).word, n), max_cosets=3000)
    digest = hashlib.sha256(repr(table.rows).encode()).hexdigest()
    assert (table.status, table.defined, table.count, digest) == CAPPED_DIGESTS[triple]


@pytest.mark.parametrize(
    "triple", [t for t, pin in CAPPED_DIGESTS.items() if pin[0] == "overflow"], ids=str
)
def test_capped_overflow_table_is_in_the_callers_generators(triple):
    n, k, l = triple
    table = todd_coxeter(extension(gnkl(n, k, l).word, n), max_cosets=3000)
    assert table.status == "overflow" and table.generators == ("a", "x")
    for i, row in enumerate(table.rows):
        assert len(row) == 4
        for c, e in enumerate(row):
            assert -1 <= e < table.count
            assert e < 0 or table.rows[e][c ^ 1] == i, (i, c)
