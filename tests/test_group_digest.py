"""Pinned digests of the group layer: reflection keys, gamma and lengths.

Every downstream basis, label and lattice id is read off the reflection
keys and gamma, so a change to the root construction that keeps these
digests keeps every complex.
"""

import hashlib

import pytest

from ncphom import CoxeterGroup

# SHA-256 of (name, reflection_keys, gamma) per type, as built from the
# ambient Fraction / Q(sqrt 5) realization that preceded the integer
# Cartan-matrix closure.
PINNED_KEY_DIGESTS = [
    ("A1",
     "6ee5c21a5339a0a7d7c0d4d9b0299d12b7c5487f87c7c52d534c55c8ed19e4a3"),
    ("A2",
     "8d2a7b5dd4265ddaf3f67cb2d837897509553c1b1f3fcb2bbad9f88bee0c2950"),
    ("A3",
     "b41575993092dc58587dc8b6a16a415049a9d08d7becfa51629b7a5f5c70240c"),
    ("A4",
     "285f24540099baa171f38363f3c638bd18338cbe2cd840e548e536fd77a13fc1"),
    ("A5",
     "1e9bc4a93b7c3ca6ff59ad86051de681f50d982323aa1b1f564f8403931bf50a"),
    ("A6",
     "a86f2f9376e9ed80c260ee33fcbe9677a02980ccbe1555351c7b520f6211daed"),
    ("A7",
     "c99ae2eb3e7b56e4ce2431caf3666cd93be250be4d6756da389e843fbd8fcc73"),
    ("B2",
     "6392559478909d4be6bdc75fd44b1f51104a89f39d6fb7646291bd0218f685eb"),
    ("B3",
     "17d818783d40234ddbf70ccb57b6900867572588733a25841ca5aca6823982d8"),
    ("B4",
     "1efe978c06122531f7ccf28edc573437b8948ee2772847912289e5d165927517"),
    ("B5",
     "d0b946085e9f0495cac5c7c08154a7c73243bda142fb674614a146b324a33a88"),
    ("B6",
     "9f92ebba21fc1523d2bbfe1625d8fbf47872dc69892bcca1d1194bab2a570c1f"),
    ("D3",
     "adbd53fcf7f685e0f7f516d26bae1bb59fce495740a879c07039bd8a973b8df5"),
    ("D4",
     "406fad8d3574dc2046bcc8f3466d7a3665d86293ae71051476c1889204afad65"),
    ("D5",
     "cb1884650b7191f6cc6e4cfc6bc39d5c75c2b34cf8d2073988f0dd1b976a71f4"),
    ("D6",
     "07f839ebf1a0185974afe3ec7e6ff1ca2d974d4506e7707f96f31aa83944cf6b"),
    ("E6",
     "62e713845b49cb66b5bccd452a3e486ae6cdbea83af09b91654f87fd4cffecc2"),
    ("E7",
     "67d44f0e596a17656da47f9e5552995fba9c543b0bbc6cd243f51f113d2764c4"),
    ("E8",
     "443915a2c2423d2fa651fe0f6ecef316afe227f0db80748cfc8d32a922657bae"),
    ("F4",
     "234d4bde6ffc7c4f4a833fdc392277399d43443bb43ae1d9fcb13f584060c4a0"),
    ("H3",
     "efacd42f967776bea0b29323102fe1f182e230cbda2b454a08b0ca63c1fd3783"),
    ("H4",
     "8144a3b37d58a04c42b2a579b7ceb4e102eee96cacbf9b4e7282276477c13615"),
    ("I2(3)",
     "fadbfc5981db1525c4812f3e2c88c4980f83ab1b528d48845748d05ef8119b51"),
    ("I2(4)",
     "7dd792ce39470cfd84b13c0c95cb45b37133e72ff99f5a21f397886a248cd8d4"),
    ("I2(5)",
     "6fdd374618b54aff113a0d86f9d9571001ce3a9170198f36be7e2d4f692cdf48"),
    ("I2(6)",
     "1e7fd544376edf789d7fe09e362e97204b1843aec860e7e9dcde7f46ebcb3be9"),
    ("I2(7)",
     "c75b387cc03dd5c04db6f6fc9f4ff8d5b568beea9aeea84f4755584d2c77c76d"),
    ("I2(8)",
     "804a6e23063d842fc46fd9b9723cf62412c2b53252858093f25406c1b9de7dfd"),
    ("I2(9)",
     "a22dfcb9af44b34f3d0be94aa08d797d3afdde11a29be7f0ec8ec0dd963bd5be"),
    ("I2(10)",
     "15238a6f89d59e67afcdd8b9064085bbd12d01a16fefdd8bc4b8ab787a2c5e8e"),
    ("I2(11)",
     "ec0a3c1c6d8ccb76edb8fc4211987f062963d38b23af7c9952d0a9d451bc074d"),
    ("I2(12)",
     "35022772ceae7f7db26a53b1cf40d9dc248bb49e917068a77be675d0473cbdf4"),
]

# SHA-256 of (name, sorted (key, reflection_length) over every element)
# per type with |W| <= 15000 from the same realization, and for E6
# (|W| = 51840) from the integer rank of w - I on the Cartan-matrix
# closure.
PINNED_LENGTH_DIGESTS = [
    ("A1",
     "ab8498601b8866192e4623c27e35e72041fac06e71b870ce965e12f41ed276e5"),
    ("A2",
     "2dfd1fd6cfff776eb3618c79a3d3f66a53b749a4b92edb839316214a797a6a17"),
    ("A3",
     "471dd65fa6e33633adf7c2064889a50cd70905466595d19932d0a68654a4ce71"),
    ("A4",
     "e51949b9b83cea02e6735bda80237320aca4691be803d58393dcb1c2e8ed81ae"),
    ("A5",
     "31f361a11be60c74955efce8110e689460b5ddc7acf9978c7abd876b04ee4fa3"),
    ("A6",
     "68a67503393cf8606aee4f944cea703e2508f81e952c3d6ad619edbebca365aa"),
    ("B2",
     "2a3eb00bc779b773908e412d872bbf65e658a979128aac6ab42efb1a7c710d10"),
    ("B3",
     "4509731582a45575fb6e61f11d31b48326dca91019286461c52e595801bf7a4b"),
    ("B4",
     "79f863284246bc13176c5f10eca5ecbca1ee4c47d36f46300354f9fe0cb9dd21"),
    ("B5",
     "ec2d91f1bcc8160e31472d8ce967d361d4cda83a06339bc28b2af43b0f30cdd2"),
    ("D3",
     "4a41c83f236f06dbcf8a57490345fbb92495ed6367807625b4440bdf7e1b7a1b"),
    ("D4",
     "0b1aebcf9aa8cf582aa7ae2a16875997494d0c7602cea1c81d5e8f728c73986d"),
    ("D5",
     "c81e57fbfd7b2a79421b5d75a38b8f7adfbedb3e8889c097ae810aeeac6d1463"),
    ("E6",
     "4222f21e87e5b8b004698c2c5a6e90b6f81480116415b18d51fdc82c80f6d9c2"),
    ("F4",
     "8d7dde2cfc1d3e64b840198c9b718b8efa2952878f63cf2b7803155b51cc02de"),
    ("H3",
     "dbd52c94929f1eb4bd565c4d8d1af7b292d030059f6ebaffdea879d3583ec032"),
    ("H4",
     "6b704ad0e07a83e164f84f58ac2ad8fbbd29e5f3adcf0e17d96136e02cc708b5"),
    ("I2(3)",
     "9fd801f63676780780cbc65dfe9608ed4efbf7556ae5499a131a1b25ce456a14"),
    ("I2(4)",
     "b4f552af9321b63f87b912f8fd6aee1773f82be7085ced55ef0af276471b74f1"),
    ("I2(5)",
     "771a1b50e48a64d4a767e77a0e2cd1c15804a5e905fb596b61f5b5b7b1e4b2d3"),
    ("I2(6)",
     "7e0025e19b8dd0f0f5f181936fb95cf83e0e8f5bae43f4d19053955deabf2f3b"),
    ("I2(7)",
     "76524efeb4a778394812a57b6947b96050dd58c87231a1b1084fe53183c23a1a"),
    ("I2(8)",
     "429618ade058f89c375abcf090166fc7b027d0722a4b5298be0a764913a058ba"),
    ("I2(9)",
     "f1d6fd1dbc620a65a0b74614d5414b5f4731e91139c39f35d2d2aefddfea9d30"),
    ("I2(10)",
     "8b2071ca698d172ca149d9bafa77bc799117b18fbe8e2643209a4e98e51b8795"),
    ("I2(11)",
     "73afa468d38d2c1d9e18878619c2ebe06d0e1d5951bd87f12f81705e0db741a7"),
    ("I2(12)",
     "846640e1f341686f84986945857fe094847510ff8d1ddf6cc86aa0fbea625aa9"),
]


def _digest(payload):
    return hashlib.sha256(repr(payload).encode()).hexdigest()


@pytest.mark.parametrize("name,digest", PINNED_KEY_DIGESTS)
def test_reflection_keys_match_pinned_digest(name, digest):
    group = CoxeterGroup.from_name(name)
    assert _digest((name, group.reflection_keys, group.gamma)) == digest


@pytest.mark.parametrize("name,digest", PINNED_LENGTH_DIGESTS)
def test_reflection_lengths_match_pinned_digest(name, digest):
    group = CoxeterGroup.from_name(name)
    lengths = sorted((w, group.reflection_length(w))
                     for w in group.enumerate_elements())
    assert _digest((name, lengths)) == digest
