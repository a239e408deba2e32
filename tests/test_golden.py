"""Byte-for-byte CLI outputs recorded before the coefficient table refactor.

Each command's standard output is hashed with sha256 and kept with its exit
code.  The commands cover every cover-space class at a small genus and at
g = 200, both verification modes (with a user slope, a cell with no
divisor and a cell outside the coarse range), the full scan rectangle and an
odd-genus divisor, each in every output format.  A refactor of the formulas
behind them must leave all of these bytes unchanged.
"""

from __future__ import annotations

import hashlib

import pytest

from hurwitzdiv.cli import main

GOLDEN = {
    "classes hodge --g 4 --k 4 --format json":
        (0, "26819a80fa18972a8cae9fb0f87454bcf567e5b91e27faf59e8b10f8e0128fde"),
    "classes hodge --g 4 --k 4 --format csv":
        (0, "1d019cf6777947a2677f701efe21485bcd12cd22d652bda1607a72064c85fa7e"),
    "classes hodge --g 4 --k 4 --format text":
        (0, "077c1e01d1454dcd3f085ddcbaa5f40d69c6a5742534f4933e34366074d5b020"),
    "classes hodge --g 200 --k 6 --format json":
        (0, "a6c3158ae970590fc527c7ad1ce8e7bc85e4d5c155ef1b4d578b434582fe55f6"),
    "classes hodge --g 200 --k 6 --format csv":
        (0, "6eaa609f4e99a949e2d779f9115dcf68e5460678f3718820b5edb512826faca4"),
    "classes hodge --g 200 --k 6 --format text":
        (0, "2e8ccb6360d54b177f91d4cb3695200eccb40b6c733fec35453a93859059ec4c"),
    "classes canonical-stack --g 4 --k 4 --format json":
        (0, "c71431b7c504ce5a72ed747b16cd3d48db93f18099d55943d041cfefbc66d4ab"),
    "classes canonical-stack --g 4 --k 4 --format csv":
        (0, "f331a248f8a3782a07a04049a2c9e6596b46e90975c5bc59ab4f3c841358e3e7"),
    "classes canonical-stack --g 4 --k 4 --format text":
        (0, "7dd92c57402a5870cafda3cfbbc50ff9dd716b80ead35977ea89a66672706f33"),
    "classes canonical-stack --g 200 --k 6 --format json":
        (0, "eb20a48c1a4e8081233078e88be035681d7fbf8973c588b923758c8d23ae2561"),
    "classes canonical-stack --g 200 --k 6 --format csv":
        (0, "195f13e874961232270cb1f91a986552fd4e72b74014bb964825ec16ce442f2c"),
    "classes canonical-stack --g 200 --k 6 --format text":
        (0, "ff40ffcd57687faafa3e67c54ec3c541068398cb9f7298689849dc71504b97de"),
    "classes canonical-coarse --g 4 --k 4 --format json":
        (0, "29e016c9ddc8e8bbc9f56012d6aaaf88f2329fcddd3f621f59aba3c381cd9712"),
    "classes canonical-coarse --g 4 --k 4 --format csv":
        (0, "f9c69804065d3375f3425319e04f9b21bc0097109b9933e73af2760182682c59"),
    "classes canonical-coarse --g 4 --k 4 --format text":
        (0, "beed7a6bfb12c5b3dff22582fe5e023320d144f0c68efb441826c7295fa3e134"),
    "classes canonical-coarse --g 200 --k 6 --format json":
        (0, "d350befe9fc1911c08eb7c2fef01bf9f14a19540083c94642cc4b013874215fa"),
    "classes canonical-coarse --g 200 --k 6 --format csv":
        (0, "c41df543d9e1965490102212902b034127c3332f536ac87aede7d8cdb0c91f8c"),
    "classes canonical-coarse --g 200 --k 6 --format text":
        (0, "216c0eeb31f4baa2cbc2c1965a5fd72174196163e2229464f04f66f4e9f2bad6"),
    "classes branch-pullback --g 4 --k 4 --i 3 --format json":
        (0, "0ed210acb7c2a6a04bd9a98ea332a2d8a1e8a4fbdbe0a4917502887ecc001e5c"),
    "classes branch-pullback --g 4 --k 4 --i 3 --format csv":
        (0, "54d425c11250cba1edb57339b6f9e0015d44fb9f9ef7813be06fb4914d0a2def"),
    "classes branch-pullback --g 4 --k 4 --i 3 --format text":
        (0, "50d6d824d08a3aab37d08127c3bc128b6fa403a423f4e96207a157f8f176d480"),
    "classes branch-pullback --g 200 --k 6 --i 57 --format json":
        (0, "309fa939eae7ba67564df6f0c367bb0a66cdcdfa23525a7e3d01fd208acb9887"),
    "classes branch-pullback --g 200 --k 6 --i 57 --format csv":
        (0, "c89e4b76a94efdc9bab4db9ea51985d18835d79ffd4462f157f0c3cbd37401ff"),
    "classes branch-pullback --g 200 --k 6 --i 57 --format text":
        (0, "0d801067f4efec8dfec02167ad75acf4fb94da81e69857e933168c8bc2196eab"),
    "verify stack --g 8 --k 3 --format json":
        (0, "c0bcac52faa6e30964c29a34d9a62a86145af505729cd8db278685fe43b48c53"),
    "verify stack --g 8 --k 3 --format csv":
        (0, "c04f317864f536b4fe85a94c9bdf37bb2ab2033679449b201b7b6fd5f0b46ab5"),
    "verify stack --g 8 --k 3 --format text":
        (0, "8c22b9e07f992e60633df0664c87b6c17637d8a6c90e353ceca4509c08a85278"),
    "verify stack --g 15 --k 4 --format json":
        (0, "4f4054bc149d1dd27ef3ae082161ea408f2d65927deba79ab195ec4c501112c7"),
    "verify stack --g 15 --k 4 --format csv":
        (0, "24fdbb4a2f8d086d83025d12836204940dbe2239a384fdc02b082712bb2bb356"),
    "verify stack --g 15 --k 4 --format text":
        (0, "6fe491d395e618e7f0812e2cc841aa93b3d018d753bd4232000e2ce053fa941d"),
    "verify stack --g 200 --k 10 --format json":
        (0, "5a07b17dcc9d66940452cd0a858da74b34f8f10c89a30cce7d2e35843adabe5c"),
    "verify stack --g 200 --k 10 --format csv":
        (0, "cd8b107409802c57fd344a935641e2db4aebde544504adfdf509ba0d18fdde7b"),
    "verify stack --g 200 --k 10 --format text":
        (0, "ba3f521afc29db2e3a21b4d98834771ee89bb82ee1e502420f15ebcbfc8c4047"),
    "verify coarse --g 8 --k 3 --format json":
        (0, "1314f8161e59138403c707b2bb2005f923728bff964734e68721f34e07f25acc"),
    "verify coarse --g 8 --k 3 --format csv":
        (0, "246945989930b92fbd9b0c101e7c54671fd80a4150d40af0ade3bb0e160446f2"),
    "verify coarse --g 8 --k 3 --format text":
        (0, "c889a043578d05cfacc17b5db6765abc7c75acf2ed631dc532f3a7001be715bf"),
    "verify coarse --g 16 --k 9 --format json":
        (0, "d8fc897d28ab5242d85b966e2670eaacde759f077e6bd33197f80a48973e0b0a"),
    "verify coarse --g 16 --k 9 --format csv":
        (0, "05aad2c88508a0fdd037abc378b166a78c1905f59a19ce1a85beae80aa4898ba"),
    "verify coarse --g 16 --k 9 --format text":
        (0, "bcb152c02658ac031f8cc234b35e2ec5253300ed744762ba72c7fd0a112a294b"),
    "verify coarse --g 200 --k 10 --format json":
        (0, "7aedcc3a9e0345c40c18966f70ba5973b8a432ee38472c8c371822ef6ae4f02e"),
    "verify coarse --g 200 --k 10 --format csv":
        (0, "107986f26d8ac5f7bb3ecebeb0d4af8d63869c3015f83d13fc0662e59bd3a205"),
    "verify coarse --g 200 --k 10 --format text":
        (0, "e17ddaae4ec10f0d8d219ebe12ffcdf9ccc0d7aaa787e7e509d5608d86b40e4e"),
    "verify stack --g 10 --k 5 --slope 15/2 --assume-avoidance --format json":
        (0, "a08320e811a81da46c1a1f18befc838c349eae14469a1f9be010a68a8a1e3aca"),
    "verify stack --g 10 --k 5 --slope 15/2 --assume-avoidance --format csv":
        (0, "2e77119ca8f82bd249ae4c6500143f97dd9a6fc7bf6ad0f0765ae20a27bc714e"),
    "verify stack --g 10 --k 5 --slope 15/2 --assume-avoidance --format text":
        (0, "148a404a6b27b95e02e8072ba27bae1c31c9b00f008e36a495c5d53a451826ad"),
    "verify coarse --g 12 --k 4 --slope 31/4 --assume-avoidance --format json":
        (0, "837c47a0f579020f2f986223bfd7795dd13bf31c691351b13b3343e35cb9d437"),
    "verify coarse --g 12 --k 4 --slope 31/4 --assume-avoidance --format csv":
        (0, "c9c55c8afacd9f09cc2584e37b973d38aecef1e3e02b1ef412f7f9b6efc6579d"),
    "verify coarse --g 12 --k 4 --slope 31/4 --assume-avoidance --format text":
        (0, "543850a4d7b34554529676a74382b288af350fc9c64119555145ba67e89af5fd"),
    "verify stack --g 7 --k 3 --format json":
        (1, "a3bc937c50c841cd5a03efd0e0a0c5f1c80e38c3de61f7ddc62b42f6dfa9aae5"),
    "verify stack --g 7 --k 3 --format csv":
        (1, "ac2b27ece5c08c5949119c824694b6288e0d368d210284ba643003b3eb3e6871"),
    "verify stack --g 7 --k 3 --format text":
        (1, "ad4351b631fc0c0e79ccb1d06e478463e208a66f72bd3249ff9b8ea38016534f"),
    "verify coarse --g 9 --k 3 --format json":
        (1, "8f086a32990d2a212e742995a83c57d94f2c903642d58c3e98449446f748d636"),
    "verify coarse --g 9 --k 3 --format csv":
        (1, "ac2b27ece5c08c5949119c824694b6288e0d368d210284ba643003b3eb3e6871"),
    "verify coarse --g 9 --k 3 --format text":
        (1, "c84fb5c22c60514bf1a5b7d6ae0be3708b48924cb58ea6dc24e5c561bc60cc43"),
    "verify coarse --g 8 --k 6 --format json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify coarse --g 8 --k 6 --format csv":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify coarse --g 8 --k 6 --format text":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "scan --k 3 10 --g 6 60 --format json":
        (0, "3acaf577dc9b739bc7332d8bb01ebf10766cd6498bed70eb0ae06227fb6139bb"),
    "scan --k 3 10 --g 6 60 --format csv":
        (0, "fc668adc660ee11cfb2468478cb992abb9c842abb7ab7e76ea607daaffb03b6c"),
    "scan --k 3 10 --g 6 60 --format text":
        (0, "b1984c76a205d0bac36057e04ac29bd2fa5dff16b0e10a5fc0019efedf07f3e8"),
    "divisor odd --g 15 --format json":
        (0, "b68358409c3ac56b643c374567e340f30937e457bfa6b4dc4b1156fb9e9e6e9f"),
    "divisor odd --g 15 --format csv":
        (0, "78d667e2b862f7bb172cf98e3a93c8d857aa19765e334deed461b95885447781"),
    "divisor odd --g 15 --format text":
        (0, "3724f0e1ef74038ba552dd941d11e3e95e2ae8a7a6c2d7ba3d83993440f05fcc"),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_cli_output_matches_golden(command, capsys):
    code = main(command.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[command]
